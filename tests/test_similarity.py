"""Term normalization, the syntactic measure, and the semantic measure."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ontomerge import (
    Concept,
    Correspondence,
    EmptyTerm,
    Entity,
    Evidence,
    BusinessComponent,
    Ontology,
    Relation,
    align,
    normalize_term,
)
from ontomerge import integrator, similarity
from ontomerge.matching import max_weight_assignment
from ontomerge.model import SYNTACTIC
from ontomerge.similarity import (
    children_index,
    lookup_relations,
    semantic_similarity,
    syntactic_similarity,
)

from .reference import brute_force_syntactic, naive_classify, naive_semantic
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


def _shared_child_sources():
    """Two sources whose composites P ⊃ {K} and R ⊃ {K, x} both hold the
    composite K ⊃ {L}, L ⊃ {x}: the pairs (P, P') and (R, R') both score
    the child pair (K, K')."""
    def source(name):
        return _atoms(
            (f"{name}#x", "x", ()),
            (f"{name}#l", "l", (f"{name}#x",)),
            (f"{name}#k", "k", (f"{name}#l",)),
            (f"{name}#p", "p", (f"{name}#k",)),
            (f"{name}#r", "r", (f"{name}#k", f"{name}#x")),
        )
    return source("A"), source("B")


def test_composite_pair_scores_are_shared_by_the_calls_on_one_index(monkeypatch):
    # each row built is a composite's partners in one later source scored; the
    # calls on one index share the rows, so a second call builds only the
    # rows the first did not
    built = []
    partner_row = similarity._partner_row

    def counted(c1, later, kids, rows):
        built.append(c1.id)
        return partner_row(c1, later, kids, rows)

    monkeypatch.setattr(similarity, "_partner_row", counted)
    o1, o2 = _shared_child_sources()
    p1, p2, r1, r2 = (o.concepts[f"{o.id}#{t}"] for t in "pr" for o in (o1, o2))
    kids = children_index([o1, o2])
    assert syntactic_similarity(p1, p2, kids) == 1
    assert built == ["A#l", "A#k", "A#p"]
    assert syntactic_similarity(r1, r2, kids) == 1
    assert built[3:] == ["A#r"]  # K's row came from the index
    corr = semantic_similarity(r1, r2, Ontology("Od"), kids, Fraction(1))
    assert (corr.score, corr.evidence, corr.verdict) == (1, SYNTACTIC, "Identical")
    assert len(built) == 4  # and so did R's
    assert kids.rows[id(o2)]["A#r"] == {"B#r": 1}
    fresh = children_index([o1, o2])
    assert fresh.rows == {}
    assert syntactic_similarity(r1, r2, fresh) == 1
    assert built[4:] == ["A#l", "A#k", "A#r"]  # built again


@st.composite
def sparse_matrices(draw):
    """A rows x cols matrix of Fractions in [0, 1], about half its cells 0,
    with some rows and columns all 0."""
    rows, cols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    cell = st.one_of(st.just(Fraction(0)),
                     st.fractions(min_value=0, max_value=1, max_denominator=12))
    matrix = [[draw(cell) for _ in range(cols)] for _ in range(rows)]
    for r in draw(st.sets(st.integers(0, rows - 1), max_size=rows - 1)):
        matrix[r] = [Fraction(0)] * cols
    for c in draw(st.sets(st.integers(0, cols - 1), max_size=cols - 1)):
        for row in matrix:
            row[c] = Fraction(0)
    return matrix


@settings(max_examples=200, deadline=None)
@given(sparse_matrices())
def test_best_total_over_nonzero_cells_equals_the_padded_matrix_total(matrix):
    # ROADMAP item 16: a 0 cell adds nothing to an assignment, so matching
    # only the rows and columns that hold a nonzero cell loses nothing
    size = max(len(matrix), len(matrix[0]))
    padded = [row + [Fraction(0)] * (size - len(row)) for row in matrix]
    padded += [[Fraction(0)] * size for _ in range(size - len(matrix))]
    cells = [(f"r{r}", f"c{c}", w) for r, row in enumerate(matrix) for c, w in enumerate(row) if w]
    assert similarity._cells_total(cells) == max_weight_assignment(padded)[0]


@settings(max_examples=200, deadline=None)
@given(concept_pairs(max_depth=2, max_children=4))
def test_children_index_holds_the_parents_by_arity(pair):
    _, _, o1, o2 = pair
    kids = children_index([o1, o2])
    expected: dict = {}
    for source in (o1, o2):
        for concept in source.concepts.values():
            for child in set(concept.children):
                expected.setdefault(len(concept.children), {}).setdefault(child, []).append(
                    concept.id)
    assert kids.parents == {arity: {child: tuple(parents) for child, parents in by_child.items()}
                            for arity, by_child in expected.items()}
    assert all(kids[cid] == tuple(sorted((o.concepts[c] for c in concept.children),
                                         key=lambda c: (c.key, c.id)))
               for o in (o1, o2) for cid, concept in o.concepts.items())


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
    return list(components)


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
    corr = semantic_similarity(
        sources[0].concepts["CM1#service"], sources[1].concepts["CM2#prestation"],
        od, children_index(sources), Fraction(1),
    )
    assert corr.score == 1 and corr.verdict == "Synonym"
    assert corr.evidence.kind == "od_synonymy"
    assert corr.evidence.relations_used


def test_synonym_evidence_is_the_support_ontologys_own_tuple_when_all_are_synonymies():
    sources = _sources_for(
        _single_entity_component("CM1", "Service"),
        _single_entity_component("CM2", "Prestation"),
    )
    concepts = [("Od#service", "Service"), ("Od#prestation", "Prestation"),
                ("Od#prestation~2", "Prestation")]
    synonymies = (Relation("Od#service", "Od#prestation", "synonymy"),
                  Relation("Od#service", "Od#prestation~2", "synonymy"))
    c1, c2 = sources[0].concepts["CM1#service"], sources[1].concepts["CM2#prestation"]
    for relations, shared in ((synonymies, True),
                              ((*synonymies, Relation("Od#prestation", "Od#service", "equivalence")),
                               False)):
        od = _support(*relations, concepts=concepts)
        corr = semantic_similarity(c1, c2, od, children_index(sources), Fraction(1))
        assert corr.verdict == "Synonym" and corr.evidence.relations_used == synonymies
        assert (corr.evidence.relations_used is od.related_terms("service")["prestation"]) is shared


def test_od_homonymy_forces_zero():
    sources = _sources_for(
        _single_entity_component("CM1", "Service"),
        _single_entity_component("CM2", "Service"),
    )
    od = _support(
        Relation("Od#service", "Od#service~2", "homonymy"),
        concepts=[("Od#service", "Service"), ("Od#service~2", "Service")],
    )
    corr = semantic_similarity(
        sources[0].concepts["CM1#service"], sources[1].concepts["CM2#service"],
        od, children_index(sources), Fraction(1),
    )
    assert corr.score == 0 and corr.verdict == "Homonym"
    assert corr.evidence.kind == "od_homonymy"


def test_terms_absent_fall_back_to_syntactic():
    sources = _sources_for(
        _single_entity_component("CM1", "Facture"),
        _single_entity_component("CM2", "Facture"),
    )
    od = _support(concepts=[("Od#service", "Service")])
    corr = semantic_similarity(
        sources[0].concepts["CM1#facture"], sources[1].concepts["CM2#facture"],
        od, children_index(sources), Fraction(1),
    )
    assert corr.score == 1 and corr.verdict == "Identical"
    assert corr.evidence.kind == "syntactic"


def test_equivalence_only_falls_back_to_syntactic():
    sources = _sources_for(
        _single_entity_component("CM1", "Client"),
        _single_entity_component("CM2", "Acheteur"),
    )
    od = _support(
        Relation("Od#client", "Od#acheteur", "equivalence"),
        concepts=[("Od#client", "Client"), ("Od#acheteur", "Acheteur")],
    )
    corr = semantic_similarity(
        sources[0].concepts["CM1#client"], sources[1].concepts["CM2#acheteur"],
        od, children_index(sources), Fraction(1),
    )
    assert corr.score == 0 and corr.verdict == "Distinct"
    assert corr.evidence.kind == "syntactic"


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
    corr = semantic_similarity(
        sources[0].concepts["CM1#facture"], sources[1].concepts["CM2#note"],
        enriched, children_index(sources), Fraction(1),
    )
    assert corr.evidence.kind == "syntactic"


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
    corr = semantic_similarity(c1, c2, od, children_index(sources), Fraction(1))
    flipped = semantic_similarity(c2, c1, od, children_index(sources), Fraction(1))
    assert corr.score == flipped.score
    if kind == "synonymy":
        assert corr.score == 1 and corr.evidence.kind == "od_synonymy"
    else:
        assert corr.score == 0 and corr.evidence.kind == "od_homonymy"


# the scorer's whole rule, one row per case, against the naive oracles


def _table_pair(composite, equal_keys):
    """Two one-source components whose pair of interest is (CM1#p, CM2#p or
    CM2#q): atoms, or composites over (x, y) and (x, z) that score 1/2."""
    def component(cid, term, child):
        if not composite:
            return BusinessComponent(cid, cid, [Entity(term)])
        return BusinessComponent(cid, cid, [Entity(term, components=["x", child]),
                                            Entity("x"), Entity(child)])
    other = "p" if equal_keys else "q"
    left, right = component("CM1", "p", "y"), component("CM2", other, "z")
    return [left, right], left.concepts["CM1#p"], right.concepts[f"CM2#{other}"]


def test_scorer_table_matches_naive_oracles():
    seen = set()
    for relation, provenance, equal_keys, tau, composite in itertools.product(
            (None, "equivalence", "synonymy", "homonymy"), ("declared", "inferred_case2"),
            (True, False), (Fraction(1, 2), Fraction(1)), (False, True)):
        if relation is None and provenance != "declared":
            continue
        sources, c1, c2 = _table_pair(composite, equal_keys)
        od = _support(concepts=[("Od#s", c1.term), ("Od#t", c2.term)])
        if relation:
            od.add_relation(Relation("Od#s", "Od#t", relation, provenance))
        case = (relation, provenance, equal_keys, tau, composite)
        score, evidence = naive_semantic(c1, c2, od, sources, lambda *_: None)
        expected = Correspondence(c1.id, c2.id, score,
                                  naive_classify(c1, c2, score, evidence.kind, tau), evidence)
        assert semantic_similarity(c1, c2, od, children_index(sources), tau) == expected, case
        seen.add((expected.verdict, expected.evidence.kind))
    assert seen == {("Synonym", "od_synonymy"), ("Synonym", "enriched"),
                    ("Homonym", "od_homonymy"), ("Homonym", "enriched"),
                    ("Distinct", "od_homonymy"), ("Distinct", "enriched"),
                    ("Identical", "syntactic"), ("Distinct", "syntactic")}


def test_synonymy_wins_over_homonymy_between_other_concepts_of_the_same_terms():
    # synonymy(Od#a, Od#b) and homonymy(Od#a~2, Od#b) both join the terms
    # (a, b); synonymy is tried first
    sources = _sources_for(
        _single_entity_component("CM1", "a"),
        _single_entity_component("CM2", "b"),
    )
    od = _support(
        Relation("Od#a", "Od#b", "synonymy"),
        Relation("Od#a~2", "Od#b", "homonymy"),
        concepts=[("Od#a", "a"), ("Od#a~2", "a"), ("Od#b", "b")],
    )
    assert {r.kind for r in lookup_relations(od, "a", "b")} == {"synonymy", "homonymy"}
    corr = semantic_similarity(sources[0].concepts["CM1#a"], sources[1].concepts["CM2#b"],
                               od, children_index(sources), Fraction(1))
    assert (corr.score, corr.verdict) == (1, "Synonym")
    assert corr.evidence == Evidence("od_synonymy", (Relation("Od#a", "Od#b", "synonymy"),))
