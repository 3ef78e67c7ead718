"""Similarity between concepts: exact term matching plus support-ontology lookup.

Two measures work together.  The syntactic measure compares terms
directly: atomic concepts score 1 exactly when their normalized terms are
equal, and composite concepts of equal arity score the best average
pairing of their children.  An atomic child scores 0 against a composite
one, so that pairing splits in two: the atomic children pair by equal
keys (a count, no matcher; ``child_key_hits`` counts a row's at once),
and only the composite children go through maximum-weight bipartite
matching, computed bottom-up over the composition graph, reading
children from one ``children_index`` and memoized in it.  The semantic
measure consults the support ontology first: a synonymy relation between
the two terms forces 1, else a homonymy relation forces 0, else the
syntactic measure decides.  Both measures only read; enrichment, the
one write to the support ontology, is a step of ``integrator.align``'s
pair loop.

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
from .model import SYNTACTIC, BusinessComponent, Concept, Evidence, Ontology, Relation
from .terms import normalize_term

__all__ = [
    "children_index",
    "lookup_relations",
    "normalize_term",
    "semantic_similarity",
    "syntactic_similarity",
]

ZERO = Fraction(0)
ONE = Fraction(1)


class ChildrenIndex(dict):
    """Concept id -> its children, distinct, by (key, id), as ``children_index``
    builds it; ``parents``: arity -> child id -> the ids of its parents, a tuple.
    ``syntactic_similarity`` fills ``memo`` (a composite pair's score, by
    the pair's ids; ``child_key_hits`` too) and ``atoms`` (a concept's
    atomic child keys, counted): every call on one index shares them,
    valid exactly as long as the index is.
    """

    def __init__(self):
        super().__init__()
        self.parents: dict[int, dict[str, tuple[str, ...]]] = {}
        self.memo: dict[tuple[str, str], Fraction] = {}
        self.atoms: dict[str, Counter[str]] = {}


def children_index(ontologies: list[Ontology]) -> ChildrenIndex:
    """The ``ChildrenIndex`` of ``ontologies``, in one pass over their concepts.

    A ``BusinessComponent``'s children are read in stored order, its key
    order; a plain ``Ontology``'s are sorted.  Raises SchemaViolation when
    two ontologies share a concept id.
    """
    kids = ChildrenIndex()
    for ontology in ontologies:
        stored, concepts = isinstance(ontology, BusinessComponent), ontology.concepts
        for cid, concept in concepts.items():
            if cid in kids:
                raise SchemaViolation(f"concept id {cid!r} occurs in several sources")
            if not concept.children:
                kids[cid] = ()
                continue
            # from a list: a tuple built from a generator can keep spare slots
            children = tuple([concepts[child] for child in concept.children])
            kids[cid] = children if stored else tuple(sorted(children, key=lambda c: (c.key, c.id)))
            by_child = kids.parents.setdefault(len(children), {})
            for child in concept.children:
                by_child.setdefault(child, []).append(cid)
    for by_child in kids.parents.values():
        for child, parents in by_child.items():
            by_child[child] = tuple(parents)
    return kids


def syntactic_similarity(c1: Concept, c2: Concept, kids: ChildrenIndex) -> Fraction:
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
    is scored once per index, into ``kids.memo`` by (id of c1's side, id
    of c2's side); each concept's atomic child keys are counted once, into
    ``kids.atoms``.  The scores read only the component ontologies, which
    enrichment never writes.
    """
    score = _flat_score(c1, c2)
    if score is not None:
        return score
    memo, atoms = kids.memo, kids.atoms
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
        for concept, children in ((a, left), (b, right)):
            if concept.id not in atoms:
                atoms[concept.id] = Counter(x.key for x in children if not x.children)
        total = (atoms[a.id] & atoms[b.id]).total()
        if rows and cols:
            size = max(len(rows), len(cols))
            square = [row + [ZERO] * (size - len(cols)) for row in weights]
            square += [[ZERO] * size] * (size - len(rows))
            total += max_weight_assignment(square)[0]
        memo[a.id, b.id] = Fraction(total, len(left))
    return memo[c1.id, c2.id]


def flat_composites(kids: ChildrenIndex) -> set[str]:
    """The composites in ``kids`` whose n children are atomic, of n keys."""
    return {cid for cid, row in kids.items()
            if row and len({x.key for x in row if not x.children}) == len(row)}


def child_key_hits(c1: Concept, later: Ontology, kids: ChildrenIndex,
                   flat: set[str]) -> dict[str, int]:
    """Composite q of ``later`` of c1's arity -> its equal-key atomic child
    pairs with c1, counted in one pass over c1's atomic children.  For c1
    and q in ``flat`` (``flat_composites``), count / arity is the pair's
    syntactic score, written to ``kids.memo``."""
    hits: dict[str, int] = {}
    by_child = kids.parents.get(len(c1.children), {})
    for x in kids[c1.id]:
        for y in () if x.children else later.concepts_by_term(x.key):
            if not y.children:
                for q in by_child.get(y.id, ()):
                    hits[q] = hits.get(q, 0) + 1
    if c1.id in flat:
        for q in flat.intersection(hits):
            kids.memo[c1.id, q] = Fraction(hits[q], len(c1.children))
    return hits


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
    c1: Concept, c2: Concept, od: Ontology, kids: ChildrenIndex
) -> tuple[Fraction, Evidence]:
    """Support-ontology-driven score with syntactic fallback; only reads.

    Branches, in order, over the relations ``od`` holds between the two
    terms (none when either term is absent):

    1. synonymy present -> (1, od_synonymy);
    2. homonymy present -> (0, od_homonymy);
    3. otherwise (no relation, or equivalence only) -> syntactic score.

    Evidence kind is "enriched" when any decisive relation was inferred
    rather than declared.  Symmetric in (c1, c2).  ``kids`` is passed on
    to ``syntactic_similarity``.
    """
    relations = lookup_relations(od, c1.key, c2.key)
    if not relations:
        return syntactic_similarity(c1, c2, kids), SYNTACTIC
    synonymies = tuple(r for r in relations if r.kind == "synonymy")
    if synonymies:
        return ONE, Evidence(kind=_evidence_kind(synonymies, "od_synonymy"),
                             relations_used=synonymies)
    homonymies = tuple(r for r in relations if r.kind == "homonymy")
    if homonymies:
        return ZERO, Evidence(kind=_evidence_kind(homonymies, "od_homonymy"),
                              relations_used=homonymies)
    return syntactic_similarity(c1, c2, kids), SYNTACTIC


def _evidence_kind(relations: tuple[Relation, ...], declared_kind: str) -> str:
    if any(r.provenance.startswith("inferred_case") for r in relations):
        return "enriched"
    return declared_kind
