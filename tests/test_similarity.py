"""Term normalization, the syntactic measure, and the semantic measure."""

from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ontomerge import (
    Concept,
    EmptyTerm,
    Entity,
    BusinessComponent,
    Ontology,
    Relation,
    align,
    children_index,
    component_to_ontology,
    lookup_relations,
    normalize_term,
    semantic_similarity,
    syntactic_similarity,
)
from ontomerge import integrator

from .strategies import concept_pairs, terms


# ---------------------------------------------------------------------------
# normalization


def test_normalize_trims_and_folds():
    assert normalize_term("  Service ") == "service"


def test_normalize_collapses_inner_whitespace():
    assert normalize_term("Note \t d'honoraires") == "note d'honoraires"


def test_equal_after_case_fold():
    assert normalize_term("Compagnie") == normalize_term("compagnie")


def test_distinct_terms_stay_distinct():
    assert normalize_term("Cabinet") != normalize_term("Compagnie")


def test_accents_are_preserved():
    assert normalize_term("Préstation") != normalize_term("Prestation")


@pytest.mark.parametrize("raw", ["", "   ", "\t\n"])
def test_empty_terms_rejected(raw):
    with pytest.raises(EmptyTerm):
        normalize_term(raw)


@settings(max_examples=300, deadline=None)
@given(st.text(min_size=1).filter(lambda s: s.strip()))
def test_normalization_is_idempotent(raw):
    try:
        once = normalize_term(raw)
    except EmptyTerm:
        return
    assert normalize_term(once) == once


def test_canonical_term_is_its_own_key():
    raw = "".join(["note d'", "honoraires"])  # built at run time: not a constant
    assert normalize_term(raw) is raw
    assert normalize_term(raw.title()) == raw


# ---------------------------------------------------------------------------
# syntactic measure


def brute_force_syntactic(c1, c2, o1, o2) -> Fraction:
    """Independent oracle: explicit maximum over all child permutations."""
    if c1.is_atomic and c2.is_atomic:
        return Fraction(int(normalize_term(c1.term) == normalize_term(c2.term)))
    if c1.is_atomic or c2.is_atomic or len(c1.children) != len(c2.children):
        return Fraction(0)
    left = [o1.concepts[k] for k in c1.children]
    right = [o2.concepts[k] for k in c2.children]
    n = len(left)
    best = max(
        sum(
            (brute_force_syntactic(left[i], right[p[i]], o1, o2) for i in range(n)),
            Fraction(0),
        )
        for p in permutations(range(n))
    )
    return best / n


def _atoms(*specs):
    """Build (concepts..., ontology) for a flat list of (id, term, children)."""
    ontology = Ontology(specs[0][0].split("#")[0])
    for cid, term, children in specs:
        ontology.add_concept(Concept(id=cid, term=term, children=children))
    return ontology


def test_identical_atomic_terms_score_one():
    o1 = _atoms(("A#service", "Service", ()))
    o2 = _atoms(("B#service", "Service", ()))
    score = syntactic_similarity(
        o1.concepts["A#service"], o2.concepts["B#service"], children_index([o1, o2])
    )
    assert score == 1


def test_distinct_atomic_terms_score_zero():
    o1 = _atoms(("A#service", "Service", ()))
    o2 = _atoms(("B#prestation", "Prestation", ()))
    score = syntactic_similarity(
        o1.concepts["A#service"], o2.concepts["B#prestation"],
        children_index([o1, o2]),
    )
    assert score == 0


def test_composites_score_best_average_pairing():
    o1 = _atoms(
        ("A#patient", "Patient", ()),
        ("A#traitement", "Traitement", ()),
        ("A#dossier", "Dossier", ("A#patient", "A#traitement")),
    )
    o2 = _atoms(
        ("B#patient", "Patient", ()),
        ("B#facture", "Facture", ()),
        ("B#dossier2", "Dossier2", ("B#patient", "B#facture")),
    )
    c1, c2 = o1.concepts["A#dossier"], o2.concepts["B#dossier2"]
    expected = brute_force_syntactic(c1, c2, o1, o2)
    assert expected == Fraction(1, 2)  # one matching child of two
    assert syntactic_similarity(c1, c2, children_index([o1, o2])) == expected


def test_mixed_arity_scores_zero():
    o1 = _atoms(
        ("A#x", "X", ()),
        ("A#dossier", "Dossier", ("A#x",)),
    )
    o2 = _atoms(("B#dossier", "Dossier", ()))
    assert syntactic_similarity(
        o1.concepts["A#dossier"], o2.concepts["B#dossier"], children_index([o1, o2])
    ) == 0


@settings(max_examples=1000, deadline=None)
@given(concept_pairs(max_depth=2, max_children=4))
def test_syntactic_equals_brute_force_and_is_symmetric(pair):
    c1, c2, o1, o2 = pair
    score = syntactic_similarity(c1, c2, children_index([o1, o2]))
    assert score == brute_force_syntactic(c1, c2, o1, o2)
    assert score == syntactic_similarity(c2, c1, children_index([o2, o1]))
    assert 0 <= score <= 1


@settings(max_examples=200, deadline=None)
@given(concept_pairs(max_depth=2, max_children=4))
def test_syntactic_self_similarity_is_one(pair):
    c1, _, o1, _ = pair
    assert syntactic_similarity(c1, c1, children_index([o1])) == 1


# ---------------------------------------------------------------------------
# relation lookup


def _support(*relations, concepts):
    ontology = Ontology("Od")
    for cid, term in concepts:
        ontology.add_concept(Concept(id=cid, term=term))
    for relation in relations:
        ontology.add_relation(relation)
    return ontology


def test_lookup_finds_synonymy_by_terms():
    od = _support(
        Relation("Od#compagnie", "Od#cabinet", "synonymy"),
        concepts=[("Od#compagnie", "Compagnie"), ("Od#cabinet", "Cabinet")],
    )
    found = lookup_relations(od, "compagnie", "cabinet")
    assert [r.kind for r in found] == ["synonymy"]


def test_lookup_missing_terms_gives_empty_set():
    od = _support(concepts=[("Od#compagnie", "Compagnie")])
    assert lookup_relations(od, "compagnie", "inconnu") == ()


def test_lookup_same_term_homonymy():
    od = _support(
        Relation("Od#service", "Od#service~2", "homonymy"),
        concepts=[("Od#service", "Service"), ("Od#service~2", "Service")],
    )
    found = lookup_relations(od, "service", "service")
    assert [r.kind for r in found] == ["homonymy"]


def test_lookup_ignores_part_of():
    od = Ontology(
        "Od",
        concepts=[
            Concept(id="Od#dossier", term="Dossier", children=("Od#patient",)),
            Concept(id="Od#patient", term="Patient"),
        ],
    )
    assert lookup_relations(od, "dossier", "patient") == ()


# ---------------------------------------------------------------------------
# semantic measure


def _sources_for(*components):
    return [component_to_ontology(c) for c in components]


def _single_entity_component(component_id, name):
    return BusinessComponent(
        id=component_id, name=component_id, entities=(Entity(name=name),)
    )


def test_od_synonymy_forces_one():
    sources = _sources_for(
        _single_entity_component("CM1", "Service"),
        _single_entity_component("CM2", "Prestation"),
    )
    od = _support(
        Relation("Od#service", "Od#prestation", "synonymy"),
        concepts=[("Od#service", "Service"), ("Od#prestation", "Prestation")],
    )
    score, evidence = semantic_similarity(
        sources[0].concepts["CM1#service"], sources[1].concepts["CM2#prestation"],
        od, children_index(sources),
    )
    assert score == 1
    assert evidence.kind == "od_synonymy"
    assert evidence.relations_used


def test_od_homonymy_forces_zero():
    sources = _sources_for(
        _single_entity_component("CM1", "Service"),
        _single_entity_component("CM2", "Service"),
    )
    od = _support(
        Relation("Od#service", "Od#service~2", "homonymy"),
        concepts=[("Od#service", "Service"), ("Od#service~2", "Service")],
    )
    score, evidence = semantic_similarity(
        sources[0].concepts["CM1#service"], sources[1].concepts["CM2#service"],
        od, children_index(sources),
    )
    assert score == 0
    assert evidence.kind == "od_homonymy"


def test_terms_absent_fall_back_to_syntactic():
    sources = _sources_for(
        _single_entity_component("CM1", "Facture"),
        _single_entity_component("CM2", "Facture"),
    )
    od = _support(concepts=[("Od#service", "Service")])
    score, evidence = semantic_similarity(
        sources[0].concepts["CM1#facture"], sources[1].concepts["CM2#facture"],
        od, children_index(sources),
    )
    assert score == 1
    assert evidence.kind == "syntactic"


def test_equivalence_only_falls_back_to_syntactic():
    sources = _sources_for(
        _single_entity_component("CM1", "Client"),
        _single_entity_component("CM2", "Acheteur"),
    )
    od = _support(
        Relation("Od#client", "Od#acheteur", "equivalence"),
        concepts=[("Od#client", "Client"), ("Od#acheteur", "Acheteur")],
    )
    score, evidence = semantic_similarity(
        sources[0].concepts["CM1#client"], sources[1].concepts["CM2#acheteur"],
        od, children_index(sources),
    )
    assert score == 0
    assert evidence.kind == "syntactic"


# align runs the enrichment hook, then scores the pair on what it left


def _hook_sources():
    # the declared Facture~Note synonymy lets align reach CM2#note from CM1#facture
    left = Ontology("CM1")
    left.add_concept(Concept(id="CM1#facture", term="Facture"))
    left.add_concept(Concept(id="CM1#note", term="Note"))
    left.add_relation(Relation("CM1#facture", "CM1#note", "synonymy"))
    right = Ontology("CM2")
    right.add_concept(Concept(id="CM2#note", term="Note"))
    return [left, right]


def _verdicts(correspondences):
    return {c.pair: (c.score, c.verdict, c.evidence.kind) for c in correspondences}


def test_enrichment_hook_called_once_and_result_reread(monkeypatch):
    # the hook injects a synonymy; align must try the pair exactly once
    # and score it on the relation the hook committed
    od = _support(concepts=[("Od#facture", "Facture"), ("Od#note", "Note")])
    calls = []

    def hook(c1, c2, maps, *args, **kwargs):
        calls.append((c1.id, c2.id))
        if c1.key == c2.key:
            return None
        maps.od.add_relation(Relation("Od#facture", "Od#note", "synonymy",
                                      provenance="inferred_case1"))
        return "record"

    monkeypatch.setattr(integrator, "enrich", hook)
    correspondences, _, records = align(_hook_sources(), od)
    assert calls.count(("CM1#facture", "CM2#note")) == 1
    assert records == ["record"]
    assert _verdicts(correspondences)[("CM1#facture", "CM2#note")] == (1, "Synonym", "enriched")


def test_failed_enrichment_degrades_to_syntactic(monkeypatch):
    od = _support(concepts=[("Od#facture", "Facture"), ("Od#note", "Note")])
    calls = []

    def hook(c1, c2, *args, **kwargs):
        calls.append((c1.id, c2.id))
        return None

    monkeypatch.setattr(integrator, "enrich", hook)
    correspondences, enriched, records = align(_hook_sources(), od)
    assert calls.count(("CM1#facture", "CM2#note")) == 1
    assert records == []
    assert lookup_relations(enriched, "Facture", "Note") == ()
    assert _verdicts(correspondences)[("CM1#facture", "CM2#note")] == (0, "Distinct", "syntactic")


def test_hook_not_called_when_terms_absent(monkeypatch):
    od = _support(concepts=[("Od#service", "Service")])

    def hook(c1, c2, *args, **kwargs):  # pragma: no cover - must never run
        raise AssertionError("hook fired for terms outside the support ontology")

    monkeypatch.setattr(integrator, "enrich", hook)
    sources = _hook_sources()
    correspondences, enriched, records = align(sources, od)
    assert records == []
    assert _verdicts(correspondences) == {("CM1#note", "CM2#note"): (1, "Identical", "syntactic")}
    score, evidence = semantic_similarity(
        sources[0].concepts["CM1#facture"], sources[1].concepts["CM2#note"],
        enriched, children_index(sources),
    )
    assert evidence.kind == "syntactic"


@settings(max_examples=300, deadline=None)
@given(terms, terms, st.sampled_from(["synonymy", "homonymy"]))
def test_od_relation_precedence_over_any_syntactic_score(t1, t2, kind):
    """A support-ontology relation decides regardless of term equality."""
    if kind == "homonymy" and t1 != t2:
        # a declared cross-term homonymy is legal; keep the fixture simple
        t2 = t1
    sources = _sources_for(
        _single_entity_component("CM1", t1),
        _single_entity_component("CM2", t2),
    )
    od = Ontology(
        "Od",
        concepts=[
            Concept(id="Od#a", term=t1),
            Concept(id="Od#b", term=t2),
        ],
    )
    od.add_relation(Relation("Od#a", "Od#b", kind))
    c1 = sources[0].concepts[f"CM1#{normalize_term(t1)}"]
    c2 = sources[1].concepts[f"CM2#{normalize_term(t2)}"]
    score, evidence = semantic_similarity(c1, c2, od, children_index(sources))
    flipped, _ = semantic_similarity(c2, c1, od, children_index(sources))
    assert score == flipped
    if kind == "synonymy":
        assert score == 1 and evidence.kind == "od_synonymy"
    else:
        assert score == 0 and evidence.kind == "od_homonymy"
