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
)
from ontomerge.model import PROVENANCES, RELATION_KINDS


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


def assert_relations_share_ids(ontology: Ontology) -> None:
    """Each stored relation, in the ontology and in its term index, holds
    its endpoint concepts' own ``id`` strings and the model's own kind and
    provenance strings."""
    concepts = ontology.concepts
    for relation in ontology.semantic_relations():
        assert relation.a is concepts[relation.a].id and relation.b is concepts[relation.b].id
        assert relation.kind is RELATION_KINDS[RELATION_KINDS.index(relation.kind)]
        assert relation.provenance is PROVENANCES[PROVENANCES.index(relation.provenance)]
        indexed = ontology.related_terms(concepts[relation.a].key)[concepts[relation.b].key]
        assert any(r is relation for r in indexed)


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
