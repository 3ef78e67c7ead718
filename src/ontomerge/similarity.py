"""Similarity between concepts: exact term matching plus support-ontology lookup.

Two measures work together.  The syntactic measure compares terms
directly: atomic concepts score 1 exactly when their normalized terms are
equal, and composite concepts of equal arity score the best average
pairing of their children (maximum-weight bipartite matching), computed
bottom-up over the composition graph and memoized per ``align``.  The
semantic measure consults the support ontology first: a synonymy relation
between the two terms forces 1, a homonymy relation forces 0, and only
when the ontology is silent does the syntactic measure decide.  When both
terms occur in the support ontology but no relation links them, an
optional enrichment hook gets one chance to inject one before the
fallback fires.

All scores are exact Fractions in [0, 1]; atomic pairs score exactly 0
or 1.

Term questions read the indexes that ``Ontology`` keeps on write: "does
the support ontology know this term" is ``Ontology.term_present`` (the
term -> concepts index), and "which semantic relations join these two
terms" is ``lookup_relations`` (the term-pair index), for the support
ontology and for each source alike.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Optional

from .matching import max_weight_assignment
from .model import Concept, Evidence, Ontology, Relation, find_owner
from .terms import normalize_term

__all__ = [
    "lookup_relations",
    "normalize_term",
    "semantic_similarity",
    "syntactic_similarity",
]

# An enrichment hook takes the two concepts and returns some truthy record
# when it committed a new relation to the support ontology.
EnrichHook = Callable[[Concept, Concept], Optional[object]]

ZERO = Fraction(0)
ONE = Fraction(1)
# The evidence of every syntactic score; it carries no relations.
SYNTACTIC = Evidence(kind="syntactic")


def syntactic_similarity(
    c1: Concept,
    c2: Concept,
    o1: Ontology,
    o2: Ontology,
    *,
    memo: Optional[dict[tuple[str, str], Fraction]] = None,
) -> Fraction:
    """Term-equality score, averaged bottom-up over the best child pairing.

    Atomic vs atomic: 1 if the normalized terms are equal, else 0.
    Composite vs composite with the same child count n: the total weight
    of a maximum-weight injective child assignment divided by n, where
    each child weight is the score of that child pair.  Mixed arities
    score 0.  Symmetric in its arguments.

    Composite pairs are scored bottom-up from an explicit stack, so no
    composition depth meets the recursion limit, and each composite pair
    is scored once per ``memo``: a dict keyed by (id in ``o1``, id in
    ``o2``).  ``align`` keeps one memo per pair of sources; the scores
    read only the two component ontologies, which enrichment never writes.
    """
    score = _flat_score(c1, c2)
    if score is not None:
        return score
    if memo is None:
        memo = {}
    stack = [(c1, c2)]
    while stack:
        a, b = stack[-1]
        if (a.id, b.id) in memo:
            stack.pop()
            continue
        right = _children_sorted(b, o2)
        weights = []
        pending = []
        for x in _children_sorted(a, o1):
            row = []
            for y in right:
                weight = _flat_score(x, y)
                if weight is None:
                    weight = memo.get((x.id, y.id))
                    if weight is None:
                        pending.append((x, y))
                row.append(weight)
            weights.append(row)
        if pending:
            stack.extend(pending)  # score the child pairs first
            continue
        stack.pop()
        total, _ = max_weight_assignment(weights)
        memo[a.id, b.id] = total / len(weights)
    return memo[c1.id, c2.id]


def _flat_score(c1: Concept, c2: Concept) -> Optional[Fraction]:
    """The syntactic score of a pair that needs no child matching, else None."""
    kids1, kids2 = c1.children, c2.children
    if not kids1 and not kids2:
        return ONE if c1.key == c2.key else ZERO
    if not kids1 or not kids2 or len(kids1) != len(kids2):
        return ZERO
    return None


def _children_sorted(concept: Concept, ontology: Ontology) -> list[Concept]:
    kids = [ontology.concepts[child] for child in concept.children]
    return sorted(kids, key=lambda c: (c.key, c.id))


def lookup_relations(ontology: Ontology, t1: str, t2: str) -> tuple[Relation, ...]:
    """All semantic relations of ``ontology`` between two normalized terms.

    Matches any pair of concepts bearing the terms; t1 and t2 may be
    equal (homonymy between two concepts sharing one term).  part_of
    edges never count.  Result is sorted.  Answered from the ontology's
    term-pair index, so the cost does not grow with the relation count;
    this is the one query for the support ontology and for each source.
    """
    return tuple(ontology._by_term_pair.get(tuple(sorted((t1, t2))), ()))


def semantic_similarity(
    c1: Concept,
    c2: Concept,
    od: Ontology,
    sources: list[Ontology],
    enrich: EnrichHook | None = None,
    *,
    owners: Optional[tuple[Ontology, Ontology]] = None,
    memo: Optional[dict[tuple[str, str], Fraction]] = None,
) -> tuple[Fraction, Evidence]:
    """Support-ontology-driven score with syntactic fallback.

    Branches, in order:

    1. either term absent from the support ontology -> syntactic score;
    2. no relation between the terms -> invoke the enrichment hook once;
       if it injected something, re-read the relations (single re-entry,
       no loop), otherwise fall back to the syntactic score;
    3. synonymy present -> (1, od_synonymy);
    4. homonymy present -> (0, od_homonymy);
    5. other relations only (equivalence) -> syntactic score.

    Evidence kind is "enriched" when any decisive relation was inferred
    rather than declared.  Symmetric in (c1, c2).

    ``owners`` is the (ontology of c1, ontology of c2) pair; when it is
    omitted, a composite pair looks its owners up in ``sources``.  ``memo``
    is passed on to ``syntactic_similarity``.
    """
    t1 = c1.key
    t2 = c2.key
    if not (od.term_present(t1) and od.term_present(t2)):
        return _fallback(c1, c2, sources, owners, memo)
    relations = lookup_relations(od, t1, t2)
    if not relations and enrich is not None:
        if enrich(c1, c2) is not None:
            relations = lookup_relations(od, t1, t2)
    if not relations:
        return _fallback(c1, c2, sources, owners, memo)
    synonymies = tuple(r for r in relations if r.kind == "synonymy")
    if synonymies:
        return ONE, Evidence(kind=_evidence_kind(synonymies, "od_synonymy"),
                             relations_used=synonymies)
    homonymies = tuple(r for r in relations if r.kind == "homonymy")
    if homonymies:
        return ZERO, Evidence(kind=_evidence_kind(homonymies, "od_homonymy"),
                              relations_used=homonymies)
    return _fallback(c1, c2, sources, owners, memo)


def _fallback(
    c1: Concept,
    c2: Concept,
    sources: list[Ontology],
    owners: Optional[tuple[Ontology, Ontology]],
    memo: Optional[dict[tuple[str, str], Fraction]],
) -> tuple[Fraction, Evidence]:
    """The syntactic score; only a composite pair needs the owners."""
    score = _flat_score(c1, c2)
    if score is None:
        o1, o2 = owners or (find_owner(sources, c1.id), find_owner(sources, c2.id))
        score = syntactic_similarity(c1, c2, o1, o2, memo=memo)
    return score, SYNTACTIC


def _evidence_kind(relations: tuple[Relation, ...], declared_kind: str) -> str:
    if any(r.provenance.startswith("inferred_case") for r in relations):
        return "enriched"
    return declared_kind
