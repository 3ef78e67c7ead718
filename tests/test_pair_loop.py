"""The pair loop of ``align`` against the per-pair path it replaced.

``naive_align`` is the scoring loop as it was before per-concept facts
were hoisted out of it: owners found with ``find_owner`` for every pair,
children sorted on every expansion (``_children_sorted``), composites
scored by plain recursion with no memo, a fresh syntactic ``Evidence``
per pair and ``Fraction`` comparisons in the classifier.  The fast loop
must agree with it on every output, and count guards keep the child
re-sorting and the composite re-scoring from coming back.  The split
syntactic score and case 3 are held to their full-matrix forms too
(``naive_syntactic``, ``naive_infer_via_children``).  ``naive_align``'s
enrichment hook calls ``enrich`` with one ``RunMaps`` per state of the
support ontology, built again after each commit, so it does not rest on
the entries a commit drops (``RunMaps.forget``).
"""

import gc
import sys
import weakref
from fractions import Fraction
from operator import attrgetter
from typing import Iterable

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ontomerge import (
    BusinessComponent,
    Concept,
    Correspondence,
    Entity,
    Evidence,
    Ontology,
    Relation,
    Report,
    ScenarioSpec,
    SchemaViolation,
    align,
    children_index,
    component_to_ontology,
    enrich,
    expand_correspondences,
    generate_scenario,
    infer_via_equivalents,
    integrate,
    lookup_relations,
    normalize_term,
    pair_space_of,
    semantic_similarity,
    serialize_component,
    serialize_ontology,
    syntactic_similarity,
)
from ontomerge import enrichment, integrator
from ontomerge.cli import main
from ontomerge.enrichment import RunMaps, infer_via_children
from ontomerge.integrator import ASSUMED_IDENTICAL_WARNING
from ontomerge.matching import max_weight_assignment
from ontomerge.model import as_fraction

from .strategies import TERM_POOL, build_ontology, concept_trees, terms
from .test_index import naive_first_relation


# ---------------------------------------------------------------------------
# naive reference


def find_owner(ontologies: Iterable[Ontology], concept_id: str) -> Ontology:
    """Return the ontology that contains ``concept_id``."""
    for ontology in ontologies:
        if concept_id in ontology.concepts:
            return ontology
    raise KeyError(f"concept {concept_id!r} not found in any given ontology")


def _children_sorted(concept: Concept, ontology: Ontology) -> list[Concept]:
    kids = [ontology.concepts[child] for child in concept.children]
    return sorted(kids, key=lambda c: (c.key, c.id))


def naive_syntactic(c1, c2, o1, o2):
    if c1.is_atomic and c2.is_atomic:
        return Fraction(1) if c1.key == c2.key else Fraction(0)
    if c1.is_atomic or c2.is_atomic or len(c1.children) != len(c2.children):
        return Fraction(0)
    left = _children_sorted(c1, o1)
    right = _children_sorted(c2, o2)
    weights = [[naive_syntactic(a, b, o1, o2) for b in right] for a in left]
    total, _ = max_weight_assignment(weights)
    return total / len(left)


def naive_semantic(c1, c2, od, sources, hook):
    o1 = find_owner(sources, c1.id)
    o2 = find_owner(sources, c2.id)
    t1, t2 = c1.key, c2.key

    def fallback():
        return naive_syntactic(c1, c2, o1, o2), Evidence(kind="syntactic")

    if not (od.term_present(t1) and od.term_present(t2)):
        return fallback()
    relations = lookup_relations(od, t1, t2)
    if not relations and hook(c1, c2) is not None:
        relations = lookup_relations(od, t1, t2)
    if not relations:
        return fallback()
    for kind, declared, score in (("synonymy", "od_synonymy", 1), ("homonymy", "od_homonymy", 0)):
        used = tuple(r for r in relations if r.kind == kind)
        if used:
            inferred = any(r.provenance.startswith("inferred_case") for r in used)
            return Fraction(score), Evidence(
                kind="enriched" if inferred else declared, relations_used=used
            )
    return fallback()


def naive_classify(c1, c2, score, kind, tau):
    if kind in ("od_synonymy", "enriched") and score == 1:
        return "Synonym"
    if kind in ("od_homonymy", "enriched") and score == 0:
        return "Homonym" if c1.key == c2.key else "Distinct"
    if kind == "syntactic" and score >= tau:
        return "Identical"
    return "Distinct"


def naive_align(sources, od, tau, warnings):
    tau = as_fraction(tau)
    ordered = sorted(sources, key=lambda o: o.id)
    enriched_od = od.copy()
    records = []
    maps = RunMaps(enriched_od, ordered)  # one per state of the support ontology

    def hook(a, b):
        nonlocal maps
        record = enrich(a, b, maps, warnings=warnings)
        if record is not None:
            records.append(record)
            maps = RunMaps(enriched_od, ordered)
        return record

    correspondences = []
    for i, left in enumerate(ordered):
        for right in ordered[i + 1:]:
            for cid1 in sorted(left.concepts):
                for cid2 in sorted(right.concepts):
                    c1, c2 = left.concepts[cid1], right.concepts[cid2]
                    score, evidence = naive_semantic(
                        c1, c2, enriched_od, list(ordered), hook
                    )
                    verdict = naive_classify(c1, c2, score, evidence.kind, tau)
                    if verdict == "Identical" and c1.key == c2.key:
                        warnings.append(
                            f"{ASSUMED_IDENTICAL_WARNING} for term "
                            f"{c1.key!r} ({c1.id}, {c2.id})"
                        )
                    correspondences.append(Correspondence(
                        c1=cid1, c2=cid2, score=score, verdict=verdict, evidence=evidence,
                    ))
    return correspondences, enriched_od, records


# ---------------------------------------------------------------------------
# the fast loop agrees with the naive one


def _relabel(tree, rename):
    if isinstance(tree, tuple):
        term, subtrees = tree
        return (rename.get(term, term), [_relabel(sub, rename) for sub in subtrees])
    return rename.get(tree, tree)


def _draw_relations(draw, ontology, ids, most):
    """Add up to ``most`` drawn semantic relations among ``ids`` to ``ontology``."""
    for _ in range(draw(st.integers(min_value=0, max_value=most))):
        a, b = draw(st.sampled_from(ids)), draw(st.sampled_from(ids))
        kind = draw(st.sampled_from(("equivalence", "synonymy", "homonymy")))
        try:
            ontology.add_relation(Relation(a, b, kind))
        except SchemaViolation:
            pass  # a self-relation, a duplicate, or synonymy beside homonymy


def _terms_below(tree):
    """The terms of every node under the root of ``tree``."""
    for sub in tree[1]:
        if isinstance(sub, tuple):
            yield sub[0]
            yield from _terms_below(sub)
        else:
            yield sub


def _concept_of(ontology, term, prefix):
    """The id of a concept of ``ontology`` with ``term``, added atomic if none has it."""
    found = ontology.concepts_by_term(normalize_term(term))
    if found:
        return found[0].id
    cid = f"{ontology.id}#{prefix}-{term}"
    ontology.add_concept(Concept(id=cid, term=term))
    return cid


@st.composite
def alignment_inputs(draw):
    """A generated scenario plus two composite-rich sources over TERM_POOL.

    The two extra sources give fractional composite scores (so ``tau``
    below 1 matters) and shared child pairs; pool terms put into the
    support ontology send their pairs through enrichment, where
    equal-term children can make case 3 fire, and drawn relations can
    make case 1 and case 2 fire and open pairs later in a row.  A right
    side relabelled apart (every term gets a new name) declares some or
    all of its old child terms synonymous or equivalent to their new
    names, in the support ontology, L or R, and puts both root terms in
    the support ontology, so case 3 also pairs children that share no key.
    """
    synonyms = draw(st.integers(min_value=0, max_value=3))
    homonyms = draw(st.integers(min_value=0, max_value=2))
    spec = ScenarioSpec(
        concept_count=draw(st.integers(min_value=max(4, 2 * (synonyms + homonyms)),
                                       max_value=14)),
        synonym_pairs=synonyms,
        homonym_pairs=homonyms,
        od_coverage=draw(st.sampled_from([0, 0.5, 1])),
        rng_seed=draw(st.integers(min_value=0, max_value=10_000)),
    )
    components, od, _ = generate_scenario(spec)
    sources = [component_to_ontology(c) for c in components]
    left = (draw(terms), draw(st.lists(concept_trees(2, 3), min_size=1, max_size=3)))
    declared = []  # old child terms declared related to their new names
    if draw(st.booleans()):  # same shape, some terms renamed
        if draw(st.booleans()):
            rename = draw(st.dictionaries(terms, terms))
        else:  # every term renamed apart, so only declared relations join children
            rename = {term: f"{term} bis" for term in TERM_POOL}
            below = sorted(set(_terms_below(left)))
            declared = below if draw(st.booleans()) else draw(
                st.lists(st.sampled_from(below), unique=True, min_size=1))
        right = _relabel(left, rename)
    else:
        right = (draw(terms), draw(st.lists(concept_trees(2, 3), min_size=1, max_size=3)))
    sources += [build_ontology(left, "L")[0], build_ontology(right, "R")[0]]
    known = draw(st.lists(st.sampled_from(TERM_POOL), unique=True, max_size=6))
    for term in known:
        od.add_concept(Concept(id=f"Od#pool-{term}", term=term))
    if len(known) >= 2 and draw(st.booleans()):
        od.add_relation(Relation(f"Od#pool-{known[0]}", f"Od#pool-{known[1]}", "synonymy"))
    for term in (left[0], right[0]) if declared else ():
        _concept_of(od, term, "pool")  # the roots' pair reaches enrichment
    for old in declared:
        holder, prefix = draw(st.sampled_from(((od, "pool"), (sources[-2], "named"),
                                               (sources[-1], "named"))))
        kind = draw(st.sampled_from(("synonymy", "equivalence")))
        a, b = (_concept_of(holder, term, prefix) for term in (old, rename[old]))
        holder.add_relation(Relation(a, b, kind))
    # relations inside L, inside R and among the pool concepts: case 1 and
    # case-2 paths the generator never makes, same-key pairs included
    for ontology in (sources[-2], sources[-1], od):
        ids = sorted(cid for cid in ontology.concepts if ontology is not od or "#pool-" in cid)
        if ids:
            _draw_relations(draw, ontology, ids, most=4)
    tau = draw(st.sampled_from([Fraction(1), Fraction(2, 3), Fraction(1, 2), Fraction(1, 3)]))
    return sources, od, tau


def _tied_children_inputs():
    """Case 3 with two perfect child matchings that cite different relations.

    gamma ⊃ (bêta, alpha) meets delta ⊃ (alpha, bêta) and the support
    ontology says alpha and bêta are synonyms, so pairing by equal terms
    and pairing across the synonymy both match every child.  The children
    order (normalized term, then id) decides which one becomes the
    evidence; left's ids run against its terms, so an order by id alone
    picks the other one.
    """
    components, od, _ = generate_scenario(ScenarioSpec(4, 1, 0, 0, rng_seed=1))
    sources = [component_to_ontology(c) for c in components]
    sources += [
        build_ontology(("gamma", ["bêta", "alpha"]), "L")[0],
        build_ontology(("delta", ["alpha", "bêta"]), "R")[0],
    ]
    for term in ("alpha", "bêta", "gamma", "delta"):
        od.add_concept(Concept(id=f"Od#pool-{term}", term=term))
    od.add_relation(Relation("Od#pool-alpha", "Od#pool-bêta", "synonymy"))
    return sources, od, Fraction(1)


def _mid_row_injection_inputs():
    """An injection that makes a later concept of the same row scoreable.

    R holds two concepts keyed beta.  The row of L#p starts with R#q only
    (their children match); case 3 on (L#p, R#q) injects synonymy(alpha, beta),
    after which (L#p, R#r) takes the lookup branch, although R#r was no
    candidate when the row started.
    """
    left = Ontology("L", [
        Concept(id="L#k", term="kappa"),
        Concept(id="L#p", term="alpha", children=("L#k",)),
    ])
    right = Ontology("R", [
        Concept(id="R#k", term="kappa"),
        Concept(id="R#q", term="beta", children=("R#k",)),
        Concept(id="R#r", term="Beta"),
    ])
    od = Ontology("Od", [
        Concept(id="Od#alpha", term="alpha"),
        Concept(id="Od#beta", term="beta"),
    ])
    return [left, right], od, Fraction(1)


def _two_levels_up_inputs():
    """A composite pair that scores above 0 only through a grandchild pair.

    The shared atomic "a" makes (mid, middle) score 1/2 and so
    (top, summit) 1/4; no other pair of these two sides shares a key, so a
    join that lifts equal-key pairs only one level misses the top pair.
    """
    left = Ontology("L", [
        Concept(id="L#a", term="a"), Concept(id="L#b", term="b"), Concept(id="L#c", term="c"),
        Concept(id="L#mid", term="mid", children=("L#a", "L#b")),
        Concept(id="L#top", term="top", children=("L#mid", "L#c")),
    ])
    right = Ontology("R", [
        Concept(id="R#a", term="a"), Concept(id="R#z", term="z"), Concept(id="R#d", term="d"),
        Concept(id="R#middle", term="middle", children=("R#a", "R#z")),
        Concept(id="R#summit", term="summit", children=("R#middle", "R#d")),
    ])
    return [left, right], Ontology("Od"), Fraction(1)


def _bridged_partner_inputs():
    """A case-3 commit that opens a case-2 path for a concept whose reach was
    read before it.

    In L, a is equivalent to s1, and in M, b to s2.  The row of L#a against
    M reads its reach first; then case 3 joins the composites s1 and s2
    (child k) by synonymy, which bridges a's partner s1 to s2, so the row
    of L#a against R must reach R#b through the new path.
    """
    left = Ontology("L", [Concept(id="L#a", term="a"), Concept(id="L#k", term="k"),
                          Concept(id="L#s1", term="s1", children=("L#k",))],
                    [Relation("L#a", "L#s1", "equivalence")])
    middle = Ontology("M", [Concept(id="M#b", term="b"), Concept(id="M#k", term="k"),
                            Concept(id="M#s2", term="s2", children=("M#k",))],
                      [Relation("M#b", "M#s2", "equivalence")])
    right = Ontology("R", [Concept(id="R#b", term="b")])
    od = Ontology("Od", [Concept(id=f"Od#{t}", term=t) for t in ("a", "b", "s1", "s2")])
    return [left, middle, right], od, Fraction(1)


def _relinked_child_inputs():
    """A case-3 commit on the child term of a concept whose reach was read
    before it.

    The row of L#alpha against M reads its reach (child kappa); then case 3
    joins kappa and M's mu (child z), so the row of L#alpha against R must
    reach R#beta, whose child is mu.
    """
    left = Ontology("L", [Concept(id="L#z", term="z"),
                          Concept(id="L#kappa", term="kappa", children=("L#z",)),
                          Concept(id="L#alpha", term="alpha", children=("L#kappa",))])
    middle = Ontology("M", [Concept(id="M#z", term="z"),
                            Concept(id="M#mu", term="mu", children=("M#z",))])
    right = Ontology("R", [Concept(id="R#mu", term="mu"),
                           Concept(id="R#beta", term="beta", children=("R#mu",))])
    od = Ontology("Od", [Concept(id=f"Od#{t}", term=t) for t in ("alpha", "beta", "kappa", "mu")])
    return [left, middle, right], od, Fraction(1)


@settings(max_examples=150, deadline=None)
@given(alignment_inputs())
@example(_tied_children_inputs())
@example(_mid_row_injection_inputs())
@example(_two_levels_up_inputs())
@example(_bridged_partner_inputs())
@example(_relinked_child_inputs())
def test_align_matches_naive_per_pair_path(inputs):
    sources, od, tau = inputs
    fast_warnings, naive_warnings = [], []
    fast = align(sources, od, tau, warnings=fast_warnings)
    naive = naive_align(sources, od, tau, naive_warnings)
    space = pair_space_of(sources)
    assert expand_correspondences(Report(fast[0], pair_space=space)) == sorted(
        naive[0], key=attrgetter("c1", "c2")
    )
    scored = {c.pair for c in fast[0]}
    assert fast[0] == [c for c in naive[0] if c.pair in scored]  # in scoring order
    trivial = (Fraction(0), "Distinct", Evidence("syntactic"))
    assert all(
        (c.score, c.verdict, c.evidence) == trivial for c in naive[0] if c.pair not in scored
    )
    assert fast[1] == naive[1]
    assert fast[2] == naive[2]
    assert fast_warnings == naive_warnings


def test_an_injection_mid_row_scores_later_concepts_of_its_key():
    sources, od, tau = _mid_row_injection_inputs()
    correspondences, _, records = align(sources, od, tau)
    found = {c.pair: (c.verdict, c.evidence.kind) for c in correspondences}
    assert found[("L#p", "R#q")] == ("Synonym", "enriched")
    assert found[("L#p", "R#r")] == ("Synonym", "enriched")
    assert [record.pair for record in records] == [("L#p", "R#q")]


def test_a_same_key_atomic_and_composite_pair_lifts_no_parents():
    # L#a and R#a share a key, but an atomic scores 0 against a composite,
    # so the equal-arity parents (L#p, R#q) score 0 and are not listed
    left = Ontology("L", [
        Concept(id="L#a", term="a"), Concept(id="L#b", term="b"),
        Concept(id="L#p", term="P", children=("L#a", "L#b")),
    ])
    right = Ontology("R", [
        Concept(id="R#z", term="z"), Concept(id="R#a", term="a", children=("R#z",)),
        Concept(id="R#c", term="c"),
        Concept(id="R#q", term="Q", children=("R#a", "R#c")),
    ])
    correspondences, _, _ = align([left, right], Ontology("Od"))
    assert [(c.pair, c.score, c.verdict) for c in correspondences] == [
        (("L#a", "R#a"), 0, "Distinct"),
    ]


def _keys(ontology):
    return {concept.key for concept in ontology.concepts.values()}


@settings(max_examples=100, deadline=None)
@given(alignment_inputs())
@example(_tied_children_inputs())
def test_align_adds_no_term_to_the_support_ontology(inputs):
    # the candidate pairs are drawn from the input's terms, so enrichment
    # must never add one
    sources, od, tau = inputs
    _, enriched, _ = align(sources, od, tau)
    assert _keys(enriched) == _keys(od)


def _case2_path_inputs():
    """(L#a, R#b) joined only by case 2's path a -eq- s1 -synonymy- s2 -eq- b."""
    left = Ontology("L", [Concept(id="L#a", term="a"), Concept(id="L#s1", term="s1")],
                    [Relation("L#a", "L#s1", "equivalence")])
    right = Ontology("R", [Concept(id="R#b", term="b"), Concept(id="R#s2", term="s2")],
                     [Relation("R#b", "R#s2", "equivalence")])
    od = Ontology("Od", [Concept(id=f"Od#{t}", term=t) for t in ("a", "b", "s1", "s2")],
                  [Relation("Od#s1", "Od#s2", "synonymy")])
    return [left, right], od, Fraction(1)


def _related_children_inputs():
    """(L#p, R#q) share no child key; case 3 pairs their children by a synonymy."""
    left = Ontology("L", [Concept(id="L#k", term="kappa"),
                          Concept(id="L#p", term="alpha", children=("L#k",))])
    right = Ontology("R", [Concept(id="R#m", term="mu"),
                           Concept(id="R#q", term="beta", children=("R#m",))])
    od = Ontology("Od", [Concept(id=f"Od#{t}", term=t) for t in ("alpha", "beta", "kappa", "mu")],
                  [Relation("Od#kappa", "Od#mu", "synonymy")])
    return [left, right], od, Fraction(1)


@settings(max_examples=100, deadline=None)
@given(alignment_inputs())
@example(_tied_children_inputs())
@example(_mid_row_injection_inputs())
@example(_case2_path_inputs())
@example(_related_children_inputs())
def test_reach_holds_every_pair_the_lookup_or_enrich_joins(inputs):
    # ``candidates`` scores only what ``reach`` gives, so a pair it misses
    # would keep a relation out of the report; checked against the input
    # support ontology and the one ``align`` enriched
    sources, od, tau = inputs
    ordered = sorted(sources, key=lambda o: o.id)
    for support in (od, align(sources, od, tau)[1]):
        maps = RunMaps(support, ordered)
        kids = maps.kids
        # ``enrich`` leaves the scratch copy untouched when it fails
        scratch = RunMaps(support.copy(), ordered)
        for source in ordered:
            c1s = [c for c in source.concepts.values() if support.term_present(c.key)]
            for c1 in c1s:
                keys, linked = maps.reach(c1)
                for later in ordered:
                    if later is source:
                        continue
                    for c2 in later.concepts.values():
                        if not support.term_present(c2.key):
                            continue
                        joined = bool(lookup_relations(support, c1.key, c2.key))
                        if not joined and enrich(c1, c2, scratch):
                            joined, scratch = True, RunMaps(support.copy(), ordered)
                        if joined:
                            assert c2.key in keys or (
                                len(c2.children) == len(c1.children)
                                and any(x.key in linked for x in kids[c2.id])
                            ), (c1.id, c2.id)


# ---------------------------------------------------------------------------
# the split syntactic score agrees with the full child matrix

WIDE_TERMS = st.sampled_from(TERM_POOL[:4])  # four terms, so keys repeat


@st.composite
def wide_trees(draw, depth=3, max_width=12, width=None):
    """(term, children) of arity up to ``max_width`` over four terms.

    Each child is a bare term or, while ``depth`` allows, a composite of
    arity 1 to 3, so atomic and composite children mix down to depth 3.
    """
    if width is None:
        width = draw(st.integers(min_value=1, max_value=max_width))
    children = [
        draw(WIDE_TERMS) if depth == 1 or draw(st.booleans())
        else draw(wide_trees(depth - 1, max_width=3))
        for _ in range(width)
    ]
    return (draw(WIDE_TERMS), children)


def _wide_pair(left, right):
    o1, c1 = build_ontology(left, "L")
    o2, c2 = build_ontology(right, "R")
    return c1, c2, o1, o2


@st.composite
def wide_pairs(draw):
    """Two composites of equal arity; the right one is often a relabelled shuffle."""
    left = draw(wide_trees())
    if draw(st.booleans()):
        term, children = _relabel(left, draw(st.dictionaries(WIDE_TERMS, WIDE_TERMS)))
        right = (term, draw(st.permutations(children)))
    else:
        right = draw(wide_trees(width=len(left[1])))
    return _wide_pair(left, right)


ALL_ATOMIC = _wide_pair(
    ("alpha", ["alpha", "alpha", "bêta", "gamma", "gamma", "gamma",
               "delta", "alpha", "bêta", "bêta", "delta", "gamma"]),
    ("bêta", ["gamma", "gamma", "alpha", "delta", "delta", "delta",
              "delta", "bêta", "alpha", "gamma", "gamma", "gamma"]),
)


@settings(max_examples=200, deadline=None)
@given(wide_pairs())
@example(ALL_ATOMIC)
@example(_wide_pair(  # no atomic children
    ("alpha", [("bêta", ["alpha"]), ("gamma", ["alpha", "bêta"]), ("alpha", ["delta"])]),
    ("gamma", [("alpha", ["bêta", "alpha"]), ("bêta", ["delta"]), ("delta", ["gamma"])]),
))
@example(_wide_pair(  # three composite children against one
    ("alpha", [("bêta", ["alpha"]), "gamma", ("gamma", ["alpha", "bêta"]),
               ("alpha", ["delta", "delta"]), "bêta"]),
    ("gamma", ["gamma", ("alpha", ["bêta", "alpha"]), "bêta", "delta", "gamma"]),
))
def test_split_syntactic_score_equals_full_matrix_and_is_symmetric(pair):
    c1, c2, o1, o2 = pair
    kids = children_index([o1, o2])
    score = syntactic_similarity(c1, c2, kids)
    assert score == naive_syntactic(c1, c2, o1, o2)
    assert syntactic_similarity(c2, c1, kids) == score


def test_atomic_children_pair_without_the_matcher(monkeypatch):
    c1, c2, o1, o2 = ALL_ATOMIC
    kids = children_index([o1, o2])
    calls = _count_calls(monkeypatch, max_weight_assignment)
    # shared keys: alpha 2, bêta 1, gamma 4, delta 2
    assert syntactic_similarity(c1, c2, kids) == Fraction(9, 12)
    assert calls[0] == 0


# ---------------------------------------------------------------------------
# case 3 agrees with its per-cell matrix


def naive_infer_via_children(c1, c2, sources, od, kids):
    """Case 3 with one ``naive_first_relation`` scan per child cell and no early exit."""
    if c1.is_atomic or c2.is_atomic or len(c1.children) != len(c2.children):
        return None
    if c1.key == c2.key:
        return None
    left, right = kids[c1.id], kids[c2.id]
    ontologies = [od, *sources]
    support = []
    weights = []
    for kid1 in left:
        row_rel = []
        row_w = []
        for kid2 in right:
            s1, s2 = kid1.key, kid2.key
            relation = None  # term equality needs no relation
            if s1 != s2:
                relation = naive_first_relation(ontologies, s1, s2, ("synonymy", "equivalence"))
            row_rel.append(relation)
            row_w.append(1 if s1 == s2 or relation is not None else 0)
        support.append(row_rel)
        weights.append(row_w)
    total, assignment = max_weight_assignment(weights)
    if total != len(left):
        return None
    return tuple(
        support[i][j] for i, j in enumerate(assignment) if support[i][j] is not None
    )


@st.composite
def case3_inputs(draw):
    """Composites of equal arity over four child terms in two sources.

    Relations among the children of each source and among the four
    terms in the support ontology relate some child cells, so some
    pairs match perfectly, some have a child that relates to nothing
    and some only fail in the matcher.
    """
    width = draw(st.integers(min_value=1, max_value=8))
    sources = []
    for sid in ("L", "R"):
        roots = [(draw(terms), draw(st.lists(WIDE_TERMS, min_size=width, max_size=width)))
                 for _ in range(draw(st.integers(min_value=1, max_value=3)))]
        source = build_ontology(("root", roots), sid)[0]
        _draw_relations(draw, source, sorted(source.concepts), most=6)
        sources.append(source)
    od = Ontology("Od", [Concept(id=f"Od#{t}", term=t) for t in TERM_POOL[:4]])
    _draw_relations(draw, od, sorted(od.concepts), most=6)
    return sources, od, Fraction(1)


@settings(max_examples=200, deadline=None)
@given(case3_inputs())
@example(_tied_children_inputs())
@example(_mid_row_injection_inputs())
def test_case3_equals_per_cell_oracle(inputs):
    sources, od, _ = inputs
    maps = RunMaps(od, sources)
    composites = [c for source in sources for c in source.concepts.values() if c.children]
    for c1 in composites:
        for c2 in composites:
            assert infer_via_children(c1, c2, maps) == naive_infer_via_children(
                c1, c2, sources, od, maps.kids
            )


# ---------------------------------------------------------------------------
# count guards


def _count_calls(monkeypatch, function):
    """Rebind ``function`` in every ontomerge module to a counting wrapper."""
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return function(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("ontomerge") and getattr(module, function.__name__, None) is function:
            monkeypatch.setattr(module, function.__name__, counted)
    return calls


# ---------------------------------------------------------------------------
# deep composition chains


def _chain_ontology(ontology_id, depth):
    """c0 ⊃ c1 ⊃ ... ⊃ c<depth-1>; every concept is named after its level."""
    ontology = Ontology(ontology_id)
    for i in range(depth):
        children = (f"{ontology_id}#c{i + 1}",) if i + 1 < depth else ()
        ontology.add_concept(Concept(id=f"{ontology_id}#c{i}", term=f"t{i}", children=children))
    return ontology


def test_syntactic_similarity_scores_3000_deep_chains():
    o1 = _chain_ontology("A", 3000)
    o2 = _chain_ontology("B", 3000)
    shorter = _chain_ontology("C", 2999)
    kids = children_index([o1, o2, shorter])
    assert syntactic_similarity(o1.concepts["A#c0"], o2.concepts["B#c0"], kids) == 1
    assert syntactic_similarity(o1.concepts["A#c0"], shorter.concepts["C#c0"], kids) == 0


def _chain_component(component_id, depth):
    return BusinessComponent(id=component_id, name=component_id, entities=tuple(
        Entity(name=f"e{i}", components=(f"e{i + 1}",) if i + 1 < depth else ())
        for i in range(depth)
    ))


def _chain_integrate_args(tmp_path, depth):
    """``cli integrate`` arguments for two components holding one chain each."""
    args = ["integrate"]
    for component_id in ("CM1", "CM2"):
        path = tmp_path / f"{component_id}.json"
        path.write_bytes(serialize_component(_chain_component(component_id, depth)))
        args += ["--component", str(path)]
    (tmp_path / "od.json").write_bytes(serialize_ontology(Ontology("Od")))
    args += [
        "--ontology", str(tmp_path / "od.json"),
        "--out-component", str(tmp_path / "out_component.json"),
        "--out-ontology", str(tmp_path / "out_ontology.json"),
        "--report", str(tmp_path / "out_report.json"),
    ]
    return args


def test_integrate_deep_chains_scores_each_composite_pair_once(tmp_path, monkeypatch):
    depth = 120
    args = _chain_integrate_args(tmp_path, depth)
    calls = _count_calls(monkeypatch, max_weight_assignment)
    assert main(args) == 0
    composite_pairs = (depth - 1) ** 2  # every composite has one child
    assert 0 < calls[0] <= composite_pairs


def _count_concept_sorts(monkeypatch):
    """Count the lists of concepts that any ontomerge module sorts."""
    calls = [0]

    def counted(iterable, **kwargs):
        items = list(iterable)
        if items and isinstance(items[0], Concept):
            calls[0] += 1
        return sorted(items, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("ontomerge"):
            monkeypatch.setattr(module, "sorted", counted, raising=False)
    return calls


def _candidate_count(sources, od):
    """Pairs with equal keys, two support-ontology keys or equal composite arity."""
    known = _keys(od)
    ordered = sorted(sources, key=lambda o: o.id)
    count = 0
    for i, left in enumerate(ordered):
        for right in ordered[i + 1:]:
            for c1 in left.concepts.values():
                for c2 in right.concepts.values():
                    count += (
                        c1.key == c2.key
                        or (c1.key in known and c2.key in known)
                        or (bool(c1.children) and len(c1.children) == len(c2.children))
                    )
    return count


def test_integrate_scores_only_candidate_pairs(monkeypatch):
    components, od, truth = generate_scenario(ScenarioSpec(200, 4, 2, 1, rng_seed=5))
    sources = [component_to_ontology(c) for c in components]
    candidates = _candidate_count(sources, od)
    calls = _count_calls(monkeypatch, semantic_similarity)
    _, _, report = integrate(components, od)
    assert 0 < calls[0] <= candidates
    assert 50 * candidates < len(truth.verdicts)  # 10,000 pairs
    assert len(report.correspondences) == calls[0]


def test_integrate_scores_only_pairs_a_relation_or_a_case_can_reach(monkeypatch):
    # every term is in the support ontology, so two known keys alone no
    # longer make a candidate: 5,625 pairs were scored when they did
    components, od, _ = generate_scenario(ScenarioSpec(150, 60, 15, 1, rng_seed=1))
    calls = _count_calls(monkeypatch, semantic_similarity)
    integrate(components, od)
    assert 0 < calls[0] <= 150


def test_align_scores_only_pairs_a_rule_can_reach(monkeypatch):
    components, od, _ = generate_scenario(ScenarioSpec(400, 50, 20, 0.5, 1))
    sources = [component_to_ontology(c) for c in components]
    calls = _count_calls(monkeypatch, infer_via_equivalents)
    correspondences, _, records = align(sources, od)
    trivial = (Fraction(0), "Distinct", Evidence("syntactic"))
    assert correspondences  # 1,000 were scored, 890 of them trivial, when all bridged pairs were
    assert all((c.score, c.verdict, c.evidence) != trivial for c in correspondences)
    assert 0 < calls[0] <= 2 * len(records)  # 925 calls for 35 injections


def test_integrate_sorts_each_child_list_once(tmp_path, monkeypatch):
    depth = 120
    args = _chain_integrate_args(tmp_path, depth)
    calls = _count_concept_sorts(monkeypatch)
    assert main(args) == 0
    concepts = 2 * depth
    assert 0 < calls[0] <= concepts  # 55,977 when each expansion re-sorted the children


# ---------------------------------------------------------------------------
# the per-run maps of ``align``


def hub_inputs(d):
    """A case-2 hub: L holds x1..xD and h with equivalence(xi, h), R two
    unrelated entities, and the support ontology every term plus
    synonymy(h, zk) for D terms zk.  No pair is scored."""
    left = BusinessComponent(
        id="L", name="l",
        entities=(*(Entity(name=f"x{i}") for i in range(1, d + 1)), Entity(name="h")),
        relations=tuple((f"x{i}", "h", "equivalence") for i in range(1, d + 1)),
    )
    right = BusinessComponent(id="R", name="r", entities=(Entity(name="r1"), Entity(name="r2")))
    terms = ["h", "r1", "r2", *(f"x{i}" for i in range(1, d + 1)),
             *(f"z{k}" for k in range(1, d + 1))]
    od = Ontology("Od", [Concept(id=f"Od#{t}", term=t) for t in terms],
                  [Relation("Od#h", f"Od#z{k}", "synonymy") for k in range(1, d + 1)])
    return [left, right], od


def test_hub_partner_and_bridge_reads_grow_linearly(monkeypatch):
    # reading each concept's case-2 paths afresh read equivalence partners
    # (D+1)**2 - D times: 10,101 at D = 100 and 160,401 at D = 400
    for d in (100, 400):
        components, od = hub_inputs(d)
        builds = _count_calls(monkeypatch, enrichment.first_relations)
        reads = [0]
        partners = RunMaps.partners

        def counted(self, term):
            reads[0] += 1
            return partners(self, term)

        monkeypatch.setattr(RunMaps, "partners", counted)
        _, _, report = integrate(components, od)
        assert report.correspondences == [] and report.enrichments == []
        assert reads[0] + builds[0] <= 4 * (d + 1)
        monkeypatch.undo()


def _state_inputs(declared):
    """S1#alpha and T1#beta, with synonymy(alpha, beta) in the support
    ontology when ``declared``; ids no other test uses."""
    od = Ontology("Od", [Concept(id="Od#alpha", term="alpha"), Concept(id="Od#beta", term="beta")],
                  [Relation("Od#alpha", "Od#beta", "synonymy")] if declared else [])
    return [Ontology("S1", [Concept(id="S1#alpha", term="alpha")]),
            Ontology("T1", [Concept(id="T1#beta", term="beta")])], od


def test_two_align_runs_keep_their_maps_apart(monkeypatch):
    # the maps live and die with one run: a run after another one on
    # inputs that reuse its concept ids and terms equals that run alone,
    # and nothing holds a run's maps once ``align`` has returned
    runs = {declared: align(*_state_inputs(declared)) for declared in (True, False)}
    assert [(c.pair, c.verdict) for c in runs[True][0]] == [(("S1#alpha", "T1#beta"), "Synonym")]
    assert runs[False][0] == []  # reach of S1#alpha was empty in this run
    for declared in (True, False, True):
        assert align(*_state_inputs(declared)) == runs[declared]
    built = []

    def kept(*args):
        maps = RunMaps(*args)
        built.append(weakref.ref(maps))
        return maps

    monkeypatch.setattr(integrator, "RunMaps", kept)
    gc.disable()
    try:
        align(*_state_inputs(True))
        assert len(built) == 1 and built[0]() is None  # freed without the collector
    finally:
        gc.enable()


def _fresh_entries(maps):
    """Each entry ``maps`` holds, beside the same entry built from scratch."""
    sources = maps.sources
    fresh = RunMaps(maps.od, sources)
    yield ("partners",), maps._partners, fresh._partners
    for name in ("bridges", "cells"):
        for key, value in getattr(maps, name).items():
            yield (name, key), value, getattr(fresh, name)[key]
    for cid, value in maps._reach.items():
        concept = next(s.concepts[cid] for s in sources if cid in s.concepts)
        yield ("reach", cid), value, fresh.reach(concept)


@settings(max_examples=100, deadline=None)
@given(alignment_inputs())
@example(_mid_row_injection_inputs())
@example(_case2_path_inputs())
@example(_related_children_inputs())
@example(_bridged_partner_inputs())
@example(_relinked_child_inputs())
def test_run_maps_equal_a_fresh_build_after_every_commit(inputs):
    sources, od, tau = inputs
    checked = []

    def enrich(c1, c2, maps, warnings=None):
        record = enrichment.enrich(c1, c2, maps, warnings)
        if record is not None:
            for key, held, fresh in _fresh_entries(maps):
                assert held == fresh, key
            checked.append(record)
        return record

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(integrator, "enrich", enrich)
        _, _, records = align(sources, od, tau)
    assert checked == records
