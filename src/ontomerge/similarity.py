"""Similarity between concepts: exact term matching plus support-ontology lookup.

Two measures work together.  The syntactic measure compares terms
directly: atomic concepts score 1 exactly when their normalized terms are
equal, and composite concepts of equal arity score the best average
pairing of their children (maximum-weight bipartite matching).  The
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


def syntactic_similarity(c1: Concept, c2: Concept, o1: Ontology, o2: Ontology) -> Fraction:
    """Term-equality score, recursively averaged over the best child pairing.

    Atomic vs atomic: 1 if the normalized terms are equal, else 0.
    Composite vs composite with the same child count n: the total weight
    of a maximum-weight injective child assignment divided by n, where
    child weights are computed recursively.  Mixed arities score 0.
    Symmetric in its arguments.
    """
    if c1.is_atomic and c2.is_atomic:
        return ONE if c1.key == c2.key else ZERO
    if c1.is_atomic or c2.is_atomic or len(c1.children) != len(c2.children):
        return ZERO
    left = _children_sorted(c1, o1)
    right = _children_sorted(c2, o2)
    weights = [
        [syntactic_similarity(a, b, o1, o2) for b in right]
        for a in left
    ]
    total, _ = max_weight_assignment(weights)
    return total / len(left)


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
    """
    o1 = find_owner(sources, c1.id)
    o2 = find_owner(sources, c2.id)
    t1 = c1.key
    t2 = c2.key

    def fallback() -> tuple[Fraction, Evidence]:
        return syntactic_similarity(c1, c2, o1, o2), Evidence(kind="syntactic")

    if not (od.term_present(t1) and od.term_present(t2)):
        return fallback()
    relations = lookup_relations(od, t1, t2)
    if not relations and enrich is not None:
        if enrich(c1, c2) is not None:
            relations = lookup_relations(od, t1, t2)
    if not relations:
        return fallback()
    synonymies = tuple(r for r in relations if r.kind == "synonymy")
    if synonymies:
        return ONE, Evidence(kind=_evidence_kind(synonymies, "od_synonymy"),
                             relations_used=synonymies)
    homonymies = tuple(r for r in relations if r.kind == "homonymy")
    if homonymies:
        return ZERO, Evidence(kind=_evidence_kind(homonymies, "od_homonymy"),
                              relations_used=homonymies)
    return fallback()


def _evidence_kind(relations: tuple[Relation, ...], declared_kind: str) -> str:
    if any(r.provenance.startswith("inferred_case") for r in relations):
        return "enriched"
    return declared_kind
