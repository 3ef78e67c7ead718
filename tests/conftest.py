"""Shared fixtures: the canonical two-component clinic/insurer scenario.

CM1 models an insurer (Service, Compagnie), CM2 a clinic (Service,
Prestation, Cabinet).  The support ontology declares that Service and
Prestation are synonyms, that the two Service concepts are homonyms, and
that Compagnie and Cabinet are synonyms.
"""

from __future__ import annotations

import pytest

from ontomerge import (
    Association,
    BusinessComponent,
    Concept,
    Correspondence,
    Entity,
    Evidence,
    Ontology,
    Relation,
    model_io,
    normalize_term,
)


def make_cm1() -> BusinessComponent:
    return BusinessComponent(
        id="CM1",
        name="Gestion des assurances",
        entities=(
            Entity(
                name="Service",
                attributes=("code", "tarif"),
                associations=(Association(target="Compagnie", label="propose"),),
            ),
            Entity(name="Compagnie", attributes=("adresse",)),
        ),
    )


def make_cm2() -> BusinessComponent:
    return BusinessComponent(
        id="CM2",
        name="Gestion du cabinet médical",
        entities=(
            Entity(name="Service", attributes=("unité",)),
            Entity(
                name="Prestation",
                attributes=("prix",),
                associations=(Association(target="Cabinet", label="facturée par"),),
            ),
            Entity(name="Cabinet"),
        ),
    )


def make_support_ontology() -> Ontology:
    ontology = Ontology(
        "Od",
        concepts=[
            Concept(id="Od#service", term="Service"),
            Concept(id="Od#service~2", term="Service"),
            Concept(id="Od#prestation", term="Prestation"),
            Concept(id="Od#compagnie", term="Compagnie"),
            Concept(id="Od#cabinet", term="Cabinet"),
        ],
        relations=[
            Relation("Od#service", "Od#prestation", "synonymy"),
            Relation("Od#service", "Od#service~2", "homonymy"),
            Relation("Od#compagnie", "Od#cabinet", "synonymy"),
        ],
    )
    ontology.validate()
    return ontology


@pytest.fixture
def cm1() -> BusinessComponent:
    return make_cm1()


@pytest.fixture
def cm2() -> BusinessComponent:
    return make_cm2()


@pytest.fixture
def support_od() -> Ontology:
    return make_support_ontology()


@pytest.fixture
def scenario_files(tmp_path, cm1, cm2, support_od):
    """The same scenario written out as documents for CLI-level tests."""
    paths = {
        "cm1": tmp_path / "cm1.json",
        "cm2": tmp_path / "cm2.json",
        "od": tmp_path / "od.json",
    }
    paths["cm1"].write_bytes(model_io.serialize_component(cm1))
    paths["cm2"].write_bytes(model_io.serialize_component(cm2))
    paths["od"].write_bytes(model_io.serialize_ontology(support_od))
    return paths


def make_edge(c1: str, c2: str, verdict: str) -> Correspondence:
    """A correspondence of ``verdict`` with the score and evidence it requires."""
    support = (Relation("Od#x", "Od#y", "synonymy"),)
    if verdict == "Synonym":
        return Correspondence(c1, c2, 1, verdict, Evidence("od_synonymy", support))
    if verdict == "Homonym":
        return Correspondence(c1, c2, 0, verdict, Evidence("od_homonymy", support))
    score = 1 if verdict == "Identical" else 0
    return Correspondence(c1, c2, score, verdict, Evidence("syntactic"))


def part_edges(partition) -> list[Correspondence]:
    """Each part of ``partition`` as a chain of Identical edges, in its member order,
    so that ``build_clusters`` (and so ``merge``) clusters exactly those parts."""
    return [make_edge(a, b, "Identical") for part in partition for a, b in zip(part, part[1:])]


def make_contradictory_od() -> Ontology:
    """A support ontology whose relations chain a homonym pair together.

    service/offre synonymy plus service/service homonymy: the Identical
    offre pair and the two Synonym verdicts pull every concept into one
    cluster, which the homonym verdict then forbids.
    """
    return Ontology(
        "OdX",
        concepts=[
            Concept(id="OdX#service", term="service"),
            Concept(id="OdX#service~2", term="service"),
            Concept(id="OdX#offre", term="offre"),
        ],
        relations=[
            Relation("OdX#service", "OdX#service~2", "homonymy"),
            Relation("OdX#service", "OdX#offre", "synonymy"),
        ],
    )


def make_conflicting_components() -> tuple[BusinessComponent, BusinessComponent]:
    left = BusinessComponent(
        id="CM1", name="left",
        entities=(Entity(name="service"), Entity(name="offre")),
    )
    right = BusinessComponent(
        id="CM2", name="right",
        entities=(Entity(name="service"), Entity(name="offre")),
    )
    return left, right


def make_interleaved_inputs() -> tuple[list[BusinessComponent], Ontology]:
    """Three components whose concept ids interleave across sources.

    "CM 2#x" < "CM!#x" < "CM#x", so report rows of the later sources
    come before those of the first one; "CM" adds a concept no other
    source names.
    """
    od = Ontology("Od", concepts=[
        Concept(id=f"Od#{term}", term=term) for term in ("service", "prestation", "client")
    ], relations=[Relation("Od#prestation", "Od#service", "synonymy")])
    entities = (
        Entity(name="Service", components=("Client", "Contrat")),
        Entity(name="Client"),
        Entity(name="Contrat"),
    )
    components = [
        BusinessComponent(id="CM", name="a", entities=(*entities, Entity(name="Agence"))),
        BusinessComponent(id="CM 2", name="b", entities=(
            Entity(name="Prestation", components=("Client", "Dossier")),
            Entity(name="Client"),
            Entity(name="Dossier"),
            Entity(name="Guichet"),
        )),
        BusinessComponent(id="CM!", name="c", entities=(
            Entity(name="Offre", components=("Client", "Contrat")),
            Entity(name="Client"),
            Entity(name="Contrat"),
        )),
    ]
    return components, od


# Child vocabulary of ``make_composite_inputs``.
VOCABULARY = (
    "Nom", "Adresse", "Date", "Montant", "Client", "Agence",
    "Compte", "Devise", "Statut", "Code", "Libellé", "Taux",
)


def make_composite_inputs() -> tuple[list[BusinessComponent], Ontology]:
    """Three components of wide composites over one child vocabulary.

    Each component declares every term of ``VOCABULARY`` and one composite
    per arity 2..12 over it: "Dossier<n>" in CA and "Fichier<n>" in CB
    hold the first n terms, "Bloc<n>" in CC starts one term later, so its
    pairings score fractions.  The support ontology knows the even-arity
    Dossier/Fichier names and relates none of them, so case 3 injects a
    synonymy for each of those pairs.  CC declares Nom and Libellé
    equivalent, so Bloc10, also known, pairs up with Dossier10 and
    Fichier10 through that equivalence.  "Contrat", "Accord" and "Pacte"
    nest a composite beside atomic children.
    """
    def component(cid, prefix, offset, nested, relations=()):
        words = VOCABULARY[offset:] + VOCABULARY[:offset]
        entities = [Entity(name=word) for word in VOCABULARY]
        entities += [
            Entity(name=f"{prefix}{arity}", components=words[:arity])
            for arity in range(2, 13)
        ]
        entities.append(Entity(name=nested, components=(f"{prefix}3", "Client", "Date")))
        return BusinessComponent(id=cid, name=cid.lower(), entities=tuple(entities),
                                 relations=relations)

    components = [
        component("CA", "Dossier", 0, "Contrat"),
        component("CB", "Fichier", 0, "Accord"),
        component("CC", "Bloc", 1, "Pacte", relations=(("Nom", "Libellé", "equivalence"),)),
    ]
    terms = ["Contrat", "Accord", "Client", "Bloc10"]
    terms += [f"{prefix}{arity}" for arity in range(2, 13, 2) for prefix in ("Dossier", "Fichier")]
    od = Ontology("Od", concepts=[Concept(id=f"Od#{term.lower()}", term=term) for term in terms])
    return components, od


# Right-hand child terms of ``make_wide_tied_inputs``, one per VOCABULARY term.
RIGHT_VOCABULARY = (
    "Titulaire", "Domicile", "Echéance", "Somme", "Usager", "Bureau",
    "Livret", "Monnaie", "Etat", "Référence", "Intitulé", "Pourcentage",
)

# Row i, column j: the i-th VOCABULARY and the j-th RIGHT_VOCABULARY term,
# each in sorted order, are related.  Blocks of 2, 3, 2 and 5 terms on the
# diagonal have 2, 2, 2 and 4 perfect pairings.
WIDE_TIES = (
    "110000000000",
    "110000000000",
    "001100000000",
    "000110000000",
    "001010000000",
    "000001100000",
    "000001100000",
    "000000001001",
    "000000011110",
    "000000010111",
    "000000000001",
    "000000011101",
)


def make_wide_tied_inputs() -> tuple[list[BusinessComponent], Ontology]:
    """Two 12-child composites whose children pair up in 32 ways.

    "Dossier" in CL holds the twelve ``VOCABULARY`` terms and "Registre"
    in CR the twelve ``RIGHT_VOCABULARY`` terms.  The support ontology
    relates them as ``WIDE_TIES`` says, alternating synonymy and
    equivalence, so each pairing cites different relations; in the
    block of 5, matching rows first to last, or by plain augmenting
    paths with columns in either order, picks another pairing than the
    tie rule.  The support ontology knows both parent terms and relates
    them by nothing, so case 3 injects their synonymy with the evidence
    of the one pairing its tie rule picks.
    """
    def component(cid, name, words):
        entities = [Entity(name=word) for word in words]
        entities.append(Entity(name=name, components=words))
        return BusinessComponent(id=cid, name=cid.lower(), entities=tuple(entities))

    words = [*VOCABULARY, *RIGHT_VOCABULARY, "Dossier", "Registre"]
    od = Ontology("Od", concepts=[Concept(id=f"Od#{word.lower()}", term=word) for word in words])
    left, right = (sorted(terms, key=normalize_term) for terms in (VOCABULARY, RIGHT_VOCABULARY))
    for i, row in enumerate(WIDE_TIES):
        for j, cell in enumerate(row):
            if cell == "1":
                od.add_relation(Relation(f"Od#{left[i].lower()}", f"Od#{right[j].lower()}",
                                         ("synonymy", "equivalence")[(i + j) % 2]))
    return [component("CL", "Dossier", VOCABULARY), component("CR", "Registre",
                                                               RIGHT_VOCABULARY)], od
