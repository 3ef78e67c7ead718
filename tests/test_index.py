"""The ontology term indexes against the naive scans they replaced.

``Ontology`` answers term questions from two maps filled on write: term ->
concepts, and term -> related term -> relations.  The functions below
are the scans that answered them before: they re-read every concept or
relation on every call and serve as oracles here.
"""

import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from ontomerge import (
    Concept,
    Ontology,
    Relation,
    Report,
    ScenarioSpec,
    SchemaViolation,
    align,
    generate_scenario,
    lookup_relations,
    pair_space_of,
)
from ontomerge.enrichment import _equivalence_partners, first_relations
from ontomerge.model import SEMANTIC_KINDS
from ontomerge.terms import normalize_term

from .reference import expand_correspondences, naive_first_relation

# Spellings that normalize onto a few shared terms, so that concepts
# collide on terms and homonymies can join two same-termed concepts.
SPELLINGS = ("Alpha", "alpha", " ALPHA ", "bêta", "Bêta", "gamma", "Delta  x", "delta x")
TERMS = sorted({normalize_term(s) for s in SPELLINGS}) + ["absent"]
SEMANTIC = ("equivalence", "homonymy", "synonymy")


def naive_lookup(ontology, t1, t2):
    wanted = {t1, t2}
    found = []
    for relation in ontology.relations:
        if relation.kind == "part_of":
            continue
        terms = {
            normalize_term(ontology.concepts[relation.a].term),
            normalize_term(ontology.concepts[relation.b].term),
        }
        if terms == wanted:
            found.append(relation)
    return tuple(found)


def naive_related_terms(ontology, term):
    """Each term a non-part_of relation joins to ``term``, with those relations sorted."""
    related = {}
    for relation in ontology.relations:
        if relation.kind == "part_of":
            continue
        ta = normalize_term(ontology.concepts[relation.a].term)
        tb = normalize_term(ontology.concepts[relation.b].term)
        if ta == term:
            related.setdefault(tb, []).append(relation)
        elif tb == term:
            related.setdefault(ta, []).append(relation)
    return {other: tuple(sorted(found)) for other, found in related.items()}


def naive_concepts_by_term(ontology, normalized):
    found = [
        c for c in ontology.concepts.values() if normalize_term(c.term) == normalized
    ]
    return sorted(found, key=lambda c: c.id)


def naive_term_present(ontology, normalized):
    return any(normalize_term(c.term) == normalized for c in ontology.concepts.values())


def naive_equivalence_partners(term, sources):
    """(partner term, equivalence relation) pairs touching ``term``, sorted."""
    partners = []
    for source in sources:
        for relation in source.relations:
            if relation.kind != "equivalence":
                continue
            ta = normalize_term(source.concepts[relation.a].term)
            tb = normalize_term(source.concepts[relation.b].term)
            if ta == term:
                partners.append((tb, relation))
            elif tb == term:
                partners.append((ta, relation))
    return sorted(partners)


def answers(ontology):
    """Every term question the indexes answer, asked over the whole pool."""
    return {
        "lookup": {(t1, t2): lookup_relations(ontology, t1, t2)
                   for t1 in TERMS for t2 in TERMS},
        "related": {t: dict(ontology.related_terms(t)) for t in TERMS},
        "present": {t: ontology.term_present(t) for t in TERMS},
        "by_term": {t: [c.id for c in ontology.concepts_by_term(t)] for t in TERMS},
        "partners": {t: _equivalence_partners([ontology]).get(t, []) for t in TERMS},
    }


def assert_matches_oracle(ontology):
    for concept in ontology.concepts.values():
        assert concept.key == normalize_term(concept.term)
    got = answers(ontology)
    for (t1, t2), found in got["lookup"].items():
        assert found == naive_lookup(ontology, t1, t2)
    for term in TERMS:
        assert got["related"][term] == naive_related_terms(ontology, term)
        assert got["present"][term] == naive_term_present(ontology, term)
        assert got["by_term"][term] == [
            c.id for c in naive_concepts_by_term(ontology, term)
        ]
        assert got["partners"][term] == naive_equivalence_partners(term, [ontology])


# An op adds a concept (spelling, child picks) or a relation (two picks,
# kind); picks index the concepts present when the op runs.
concept_ops = st.tuples(
    st.just("concept"), st.sampled_from(SPELLINGS),
    st.lists(st.integers(0, 30), max_size=2),
)
relation_ops = st.tuples(
    st.just("relation"), st.integers(0, 30), st.integers(0, 30), st.sampled_from(SEMANTIC),
)
op_lists = st.lists(st.one_of(concept_ops, relation_ops), max_size=30)


def apply_ops(ontology, ops, prefix):
    for index, op in enumerate(ops):
        ids = sorted(ontology.concepts)
        if op[0] == "concept":
            _, spelling, picks = op
            children = {ids[p % len(ids)] for p in picks} if ids else set()
            ontology.add_concept(
                Concept(id=f"{prefix}{index}", term=spelling, children=tuple(children))
            )
        elif ids:
            _, left, right, kind = op
            try:
                ontology.add_relation(Relation(ids[left % len(ids)], ids[right % len(ids)], kind))
            except SchemaViolation:
                pass  # self-loop, duplicate or synonymy/homonymy clash


@settings(max_examples=200, deadline=None)
@given(op_lists, op_lists, op_lists)
def test_indexes_match_naive_scans_through_writes_and_copies(ops, more_ops, original_ops):
    ontology = Ontology("O")
    apply_ops(ontology, ops, "O#")
    assert_matches_oracle(ontology)
    before = answers(ontology)

    clone = ontology.copy()
    assert clone == ontology
    # writes to the original stay there: the clone shares no index list or dict
    apply_ops(ontology, original_ops, "P#")
    assert_matches_oracle(ontology)
    assert answers(clone) == before
    assert_matches_oracle(clone)
    after = answers(ontology)

    apply_ops(clone, more_ops, "C#")
    assert_matches_oracle(clone)
    assert answers(ontology) == after  # writes to the clone stay there
    assert_matches_oracle(ontology)

    sources = [ontology, clone]
    for t1 in TERMS:
        assert _equivalence_partners(sources).get(t1, []) == naive_equivalence_partners(
            t1, sources)
        # SEMANTIC_KINDS over the sources answers enrichment case 1
        for kinds in (
            SEMANTIC_KINDS, ("synonymy", "homonymy"), ("synonymy", "equivalence"),
        ):
            first = first_relations(sources, t1, kinds)
            assert set(first) <= set(TERMS)
            for t2 in TERMS:
                assert first.get(t2) == naive_first_relation(sources, t1, t2, kinds)


def test_same_term_homonymy_is_indexed_under_one_term():
    ontology = Ontology(
        "O",
        concepts=[Concept("O#a", "Service"), Concept("O#b", " service ")],
        relations=[Relation("O#a", "O#b", "homonymy")],
    )
    assert lookup_relations(ontology, "service", "service") == (
        Relation("O#a", "O#b", "homonymy"),
    )
    assert dict(ontology.related_terms("service")) == {
        "service": (Relation("O#a", "O#b", "homonymy"),)
    }
    assert [c.id for c in ontology.concepts_by_term("service")] == ["O#a", "O#b"]


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_indexes_match_naive_scans_after_enrichment(seed):
    components, od, _ = generate_scenario(ScenarioSpec(16, 5, 1, 0.0, rng_seed=seed))
    sources = list(components)
    _, enriched, records = align(sources, od)
    assert records  # withheld relations were injected into the copy
    terms = sorted({normalize_term(c.term) for c in enriched.concepts.values()})
    for t1 in terms:
        assert enriched.term_present(t1)
        assert dict(enriched.related_terms(t1)) == naive_related_terms(enriched, t1)
        assert _equivalence_partners([enriched]).get(t1, []) == naive_equivalence_partners(
            t1, [enriched]
        )
        assert enriched.concepts_by_term(t1) == naive_concepts_by_term(enriched, t1)
        for t2 in terms:
            assert lookup_relations(enriched, t1, t2) == naive_lookup(enriched, t1, t2)
    assert len(enriched.relations) == len(od.relations) + len(records)


def test_align_normalizes_per_concept_not_per_pair(monkeypatch):
    # Terms are normalized once, when a concept is built; scoring a pair
    # reads ``Concept.key``.  A count, not a timing, so it cannot flake.
    components, od, _ = generate_scenario(ScenarioSpec(60, 8, 3, 0, rng_seed=1))
    sources = list(components)
    calls = [0]

    def counted(raw):
        calls[0] += 1
        return normalize_term(raw)

    for name, module in list(sys.modules.items()):
        bound = getattr(module, "normalize_term", None)
        if name.startswith("ontomerge") and bound is normalize_term:
            monkeypatch.setattr(module, "normalize_term", counted)
    correspondences, _, records = align(sources, od)
    size = sum(len(o.concepts) + len(o.relations) for o in [*sources, od])
    assert {r.case for r in records} == {
        "inferred_case1", "inferred_case2", "inferred_case3"
    }
    full = expand_correspondences(Report(correspondences, pair_space=pair_space_of(sources)))
    assert len(full) > 10 * size
    assert calls[0] <= 2 * size
