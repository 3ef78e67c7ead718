"""Similarity between concepts: exact term matching plus support-ontology lookup.

Two measures work together.  The syntactic measure compares terms
directly: atomic concepts score 1 exactly when their normalized terms are
equal, and composite concepts of equal arity score the best average
pairing of their children.  An atomic child scores 0 against a composite
one, so that pairing splits in two: the atomic children pair by equal
keys (a multiset intersection, no matcher), and only the composite
children go through maximum-weight bipartite matching, computed
bottom-up over the composition graph, reading children from one
``children_index`` and memoized per ``align``.  The semantic measure
consults the support ontology first: a synonymy relation between the two
terms forces 1, else a homonymy relation forces 0, else the syntactic
measure decides.  Both measures only read; enrichment, the one write to
the support ontology, is a step of ``integrator.align``'s pair loop.

All scores are exact Fractions in [0, 1]; atomic pairs score exactly 0
or 1.

Term questions read the two indexes that ``Ontology`` keeps on write:
"does the support ontology know this term" is ``Ontology.term_present``,
and "which semantic relations join these two terms" is
``lookup_relations`` (a read of ``Ontology.related_terms``), for the
support ontology and for each source alike.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import Optional

from .errors import SchemaViolation
from .matching import max_weight_assignment
from .model import SYNTACTIC, Concept, Evidence, Ontology, Relation
from .terms import normalize_term

__all__ = [
    "children_index",
    "lookup_relations",
    "normalize_term",
    "semantic_similarity",
    "syntactic_similarity",
]

ChildrenIndex = dict[str, tuple[Concept, ...]]

ZERO = Fraction(0)
ONE = Fraction(1)


def children_index(ontologies: list[Ontology]) -> ChildrenIndex:
    """Map each concept id of ``ontologies`` to its children, sorted by (key, id).

    Raises SchemaViolation when two ontologies share a concept id.
    """
    kids: ChildrenIndex = {}
    for ontology in ontologies:
        for cid, concept in ontology.concepts.items():
            if cid in kids:
                raise SchemaViolation(f"concept id {cid!r} occurs in several sources")
            children = (ontology.concepts[child] for child in concept.children)
            kids[cid] = tuple(sorted(children, key=lambda c: (c.key, c.id)))
    return kids


def syntactic_similarity(
    c1: Concept,
    c2: Concept,
    kids: ChildrenIndex,
    *,
    memo: Optional[dict[tuple[str, str], Fraction]] = None,
) -> Fraction:
    """Term-equality score, averaged bottom-up over the best child pairing.

    Atomic vs atomic: 1 if the normalized terms are equal, else 0.
    Composite vs composite with the same child count n: the total weight
    of a maximum-weight injective child assignment divided by n, where
    each child weight is the score of that child pair.  Mixed arities
    score 0.  Symmetric in its arguments.  ``kids`` is the
    ``children_index`` of the ontologies holding both concepts.

    An atomic child scores 0 against a composite one, so the best total
    is the size of the multiset intersection of the atomic children's
    keys plus the best assignment among the composite children alone,
    padded to a square with 0 cells: all-atomic children need no matcher.

    Composite pairs are scored bottom-up from an explicit stack, so no
    composition depth meets the recursion limit, and each composite pair
    is scored once per ``memo``: a dict keyed by (id of c1's side, id of
    c2's side).  ``align`` keeps one memo per run; the scores read only
    the component ontologies, which enrichment never writes.
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
        left, right = kids[a.id], kids[b.id]
        rows = [x for x in left if x.children]
        cols = [y for y in right if y.children]
        weights = []
        pending = []
        for x in rows:
            row = []
            for y in cols:
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
        atoms = Counter(x.key for x in left if not x.children)
        total = (atoms & Counter(y.key for y in right if not y.children)).total()
        if rows and cols:
            size = max(len(rows), len(cols))
            square = [row + [ZERO] * (size - len(cols)) for row in weights]
            square += [[ZERO] * size] * (size - len(rows))
            total += max_weight_assignment(square)[0]
        memo[a.id, b.id] = Fraction(total, len(left))
    return memo[c1.id, c2.id]


def _flat_score(c1: Concept, c2: Concept) -> Optional[Fraction]:
    """The syntactic score of a pair that needs no child matching, else None."""
    kids1, kids2 = c1.children, c2.children
    if not kids1 and not kids2:
        return ONE if c1.key == c2.key else ZERO
    if not kids1 or not kids2 or len(kids1) != len(kids2):
        return ZERO
    return None


def lookup_relations(ontology: Ontology, t1: str, t2: str) -> tuple[Relation, ...]:
    """All semantic relations of ``ontology`` between two normalized terms.

    Matches any pair of concepts bearing the terms; t1 and t2 may be
    equal (homonymy between two concepts sharing one term).  part_of
    edges never count.  Result is sorted.  One ``Ontology.related_terms``
    read, so the cost does not grow with the relation count; this is the
    one query for the support ontology and for each source.
    """
    return ontology.related_terms(t1).get(t2, ())


def semantic_similarity(
    c1: Concept,
    c2: Concept,
    od: Ontology,
    kids: ChildrenIndex,
    *,
    memo: Optional[dict[tuple[str, str], Fraction]] = None,
) -> tuple[Fraction, Evidence]:
    """Support-ontology-driven score with syntactic fallback; only reads.

    Branches, in order, over the relations ``od`` holds between the two
    terms (none when either term is absent):

    1. synonymy present -> (1, od_synonymy);
    2. homonymy present -> (0, od_homonymy);
    3. otherwise (no relation, or equivalence only) -> syntactic score.

    Evidence kind is "enriched" when any decisive relation was inferred
    rather than declared.  Symmetric in (c1, c2).  ``kids`` and ``memo``
    are passed on to ``syntactic_similarity``.
    """
    relations = lookup_relations(od, c1.key, c2.key)
    synonymies = tuple(r for r in relations if r.kind == "synonymy")
    if synonymies:
        return ONE, Evidence(kind=_evidence_kind(synonymies, "od_synonymy"),
                             relations_used=synonymies)
    homonymies = tuple(r for r in relations if r.kind == "homonymy")
    if homonymies:
        return ZERO, Evidence(kind=_evidence_kind(homonymies, "od_homonymy"),
                              relations_used=homonymies)
    return syntactic_similarity(c1, c2, kids, memo=memo), SYNTACTIC


def _evidence_kind(relations: tuple[Relation, ...], declared_kind: str) -> str:
    if any(r.provenance.startswith("inferred_case") for r in relations):
        return "enriched"
    return declared_kind
