"""The ontology term indexes against the naive scans they replaced.

``Ontology`` answers term questions from two maps filled on write: term ->
concepts, and term -> related term -> relations.  The functions below
are the scans that answered them before: they re-read every concept or
relation on every call and serve as oracles here.
"""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ontomerge import (
    BusinessComponent,
    Concept,
    Ontology,
    Relation,
    Report,
    ScenarioSpec,
    SchemaViolation,
    align,
    generate_scenario,
    integrate,
    pair_space_of,
)
from ontomerge.enrichment import _equivalence_partners, first_relations
from ontomerge.model import SEMANTIC_KINDS
from ontomerge.similarity import children_index, lookup_relations
from ontomerge.terms import normalize_term

from .reference import (
    expand_correspondences,
    naive_concepts_by_term,
    naive_first_relation,
    naive_term_present,
)
from .strategies import components, ids, names

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


def assert_key_index_matches_oracle(ontology):
    """The run index's key map of ``ontology``: every key, its concepts by id."""
    by_key = children_index([ontology]).concepts_by_key(ontology)
    assert by_key.keys() == {concept.key for concept in ontology.concepts.values()}
    for key, found in by_key.items():
        assert found == naive_concepts_by_term(ontology, key)


def assert_matches_oracle(ontology):
    for concept in ontology.concepts.values():
        assert concept.key == normalize_term(concept.term)
    assert_key_index_matches_oracle(ontology)
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


def index_entries(ontology):
    """(index, term) -> the entry object, over both term indexes."""
    return {**{("ids", term): entry for term, entry in ontology._ids_by_term.items()},
            **{("related", term): entry for term, entry in ontology._related.items()}}


def written_entries(ontology, before):
    """The (index, term) entries that writes to ``ontology`` since it held
    ``before``'s concepts and relations touched: the term of each added
    concept, and both terms of each added relation."""
    written = {("ids", ontology.concepts[cid].key)
               for cid in ontology.concepts.keys() - before.concepts.keys()}
    for relation in set(ontology.semantic_relations()) - set(before.semantic_relations()):
        for end in (relation.a, relation.b):
            written.add(("related", ontology.concepts[end].key))
    return written


@settings(max_examples=150, deadline=None)
@given(op_lists, op_lists, op_lists, op_lists, op_lists)
def test_a_copy_shares_each_index_entry_until_one_side_writes_it(
        ops, clone_ops, original_ops, second_ops, later_clone_ops):
    ontology = Ontology("O")
    apply_ops(ontology, ops, "O#")
    snapshot = ontology.copy()  # the content, to tell what later writes touched
    clone = ontology.copy()
    shared = index_entries(ontology)
    assert index_entries(clone).keys() == shared.keys()
    assert all(index_entries(clone)[key] is entry for key, entry in shared.items())

    apply_ops(clone, clone_ops, "C#")
    written = written_entries(clone, snapshot)
    for key, entry in index_entries(clone).items():
        assert (entry is shared.get(key)) == (key not in written)
    assert all(index_entries(ontology)[key] is entry for key, entry in shared.items())
    assert_matches_oracle(clone)

    # a write on either side never shows on the other, nor on a second copy
    clone_answers = answers(clone)
    apply_ops(ontology, original_ops, "P#")
    assert_matches_oracle(ontology)
    assert answers(clone) == clone_answers
    second = clone.copy()
    original_answers = answers(ontology)
    apply_ops(second, second_ops, "S#")
    assert_matches_oracle(second)
    assert answers(clone) == clone_answers
    assert answers(ontology) == original_answers
    second_answers = answers(second)
    apply_ops(clone, later_clone_ops, "D#")
    assert_matches_oracle(clone)
    assert answers(second) == second_answers
    assert answers(ontology) == original_answers


def test_a_hub_term_written_many_times_on_a_clone_is_copied_once():
    partners = 40
    od = Ontology(
        "Od",
        concepts=[Concept("Od#hub", "Hub"),
                  *(Concept(f"Od#p{i}", f"p{i}") for i in range(partners + 1))],
        relations=[Relation("Od#hub", "Od#p0", "synonymy")],
    )
    clone = od.copy()
    related, ids = od._related["hub"], od._ids_by_term["hub"]
    assert clone._related["hub"] is related and clone._ids_by_term["hub"] is ids
    for i in range(1, partners + 1):
        clone.add_relation(Relation("Od#hub", f"Od#p{i}", "synonymy", "inferred_case1"))
        clone.add_concept(Concept(f"Od#hub~{i}", "HUB"))
        if i == 1:
            own_related, own_ids = clone._related["hub"], clone._ids_by_term["hub"]
            assert own_related is not related and own_ids is not ids
        # the entry copied at the first write takes every later one in place
        assert clone._related["hub"] is own_related and clone._ids_by_term["hub"] is own_ids
    assert len(clone.related_terms("hub")) == partners + 1
    assert len(clone.concepts_by_term("hub")) == partners + 1
    assert od._related["hub"] is related and od._ids_by_term["hub"] is ids
    assert dict(od.related_terms("hub")) == {"p0": (Relation("Od#hub", "Od#p0", "synonymy"),)}
    assert [c.id for c in od.concepts_by_term("hub")] == ["Od#hub"]


@settings(max_examples=150, deadline=None)
@given(components(), st.lists(names, max_size=4), ids, names)
def test_component_term_questions_equal_a_scan_of_its_concepts(component, probes, stray, term):
    keys = {concept.key for concept in component.concepts.values()}
    for key in sorted(keys | {normalize_term(probe) for probe in probes}):
        assert component.term_present(key) == naive_term_present(component, key)
        assert component.concepts_by_term(key) == naive_concepts_by_term(component, key)
    assert_key_index_matches_oracle(component)

    key = normalize_term(term)
    own = f"{component.id}#{key}"
    for wrong in (key, f"{component.id}{key}", f"{component.id}~2#{key}", own + " ", stray):
        if wrong != own:
            with pytest.raises(SchemaViolation, match=r"is not <component id>#<key>$"):
                component.add_concept(Concept(wrong, term))
    if own not in component.concepts:
        component.add_concept(Concept(own, term))
        assert component.concepts_by_term(key) == naive_concepts_by_term(component, key)
        assert component.term_present(key)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_integrate_asks_no_component_a_term_question(seed):
    # a component builds its term index only when asked, which would raise the
    # memory peak of every run: the pipeline reads components by key and by id
    components, od, _ = generate_scenario(ScenarioSpec(60, 6, 3, 0.5, seed))
    integrate(components, od)
    assert not any("_ids_by_term" in vars(component) for component in components)


def test_component_rejects_a_concept_id_other_than_its_id_and_key():
    component = BusinessComponent("CM1", "c")
    for cid in ("CM1#Brume", "CM2#brume", "brume", "CM1#brume~2", "CM1##brume"):
        with pytest.raises(SchemaViolation, match=rf"^concept id '{cid}' is not "):
            component.add_concept(Concept(cid, "Brume"))
    assert component.concepts == {}
    component.add_concept(Concept("CM1#brume", "Brume"))
    assert [c.id for c in component.concepts_by_term("brume")] == ["CM1#brume"]


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
    assert_key_index_matches_oracle(ontology)


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
