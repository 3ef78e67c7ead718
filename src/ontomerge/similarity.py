"""Similarity between concepts: exact term matching plus support-ontology lookup.

Two measures work together.  The syntactic measure compares terms
directly: atomic concepts score 1 exactly when their normalized terms
are equal, and composite concepts of equal arity score the best average
pairing of their children.  One join, ``partner_scores``, finds the
composites that score above 0 against a composite and their scores,
bottom-up over the composition graph, reading children from one
``children_index`` and cached in it.  The semantic measure,
``semantic_similarity``, gives a pair's whole ``Correspondence`` and is
the one place that decides a verdict: a synonymy relation between the
two terms in the support ontology makes a Synonym, else a homonymy makes
a Homonym, else the syntactic score against the threshold decides.  Both
measures only read; enrichment, the one write to the support ontology,
is a step of ``integrator.align``'s pair loop.

All scores are exact Fractions in [0, 1]; atomic pairs score exactly 0
or 1.

"Does the support ontology know this term" is ``Ontology.term_present``,
and "which semantic relations join these two terms" is
``lookup_relations``, a read of ``Ontology.related_terms``, for the
support ontology and for each source alike: two indexes that ``Ontology``
keeps on write.  "Which concepts of a source bear this key" reads the
run's ``children_index`` instead (``ChildrenIndex.concepts_by_key``).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from .errors import SchemaViolation
from .matching import max_weight_assignment
from .model import (
    SYNTACTIC, BusinessComponent, Concept, Correspondence, Evidence, Ontology, Relation,
)

ZERO = Fraction(0)
ONE = Fraction(1)


class _Lazy(dict):
    """A dict that builds a missing entry with ``build(key)`` and keeps it."""

    def __init__(self, build):
        super().__init__()
        self.build = build

    def __missing__(self, key):
        value = self[key] = self.build(key)
        return value


class ChildrenIndex(dict):
    """Concept id -> its children, distinct, by (key, id), as ``children_index``
    builds it from ``sources``; ``parents``: arity -> child id -> the ids of
    its parents, a tuple.  Filled on first use and shared by every call on
    the index, valid as long as it is, since it keeps its sources alive:
    ``by_key``, ``id()`` of a source -> its key -> its concepts by id
    (``concepts_by_key``); ``rows``, ``id()`` of a later source -> composite
    id -> its row there (``partner_scores``); ``fractions``, (total, arity)
    -> the one ``Fraction(total, arity)`` that the rows hold.
    """

    def __init__(self, sources: tuple[Ontology, ...]):
        super().__init__()
        self.sources = sources
        self.parents: dict[int, dict[str, tuple[str, ...]]] = {}
        self.by_key: dict[int, dict[str, list[Concept]]] = {}
        self.rows: dict[int, dict[str, dict[str, Fraction]]] = {}
        self.fractions = _Lazy(lambda key: Fraction(*key))

    def concepts_by_key(self, source: Ontology) -> dict[str, list[Concept]]:
        """``source``'s key -> its concepts by id, built at the first call for
        ``source``, so a source only ever scanned as the earlier one of a
        pair is never indexed.  Do not modify."""
        index = self.by_key.get(id(source))
        if index is None:
            index = self.by_key[id(source)] = {}
            for _, concept in sorted(source.concepts.items()):
                index.setdefault(concept.key, []).append(concept)
        return index


def children_index(ontologies: list[Ontology]) -> ChildrenIndex:
    """The ``ChildrenIndex`` of ``ontologies``, in one pass over their concepts;
    its key maps, rows and fractions start empty and fill on first use.

    A ``BusinessComponent``'s children are read in stored order, its key
    order; a plain ``Ontology``'s are sorted.  Raises SchemaViolation when
    two ontologies share a concept id.
    """
    kids = ChildrenIndex(tuple(ontologies))
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
    ``children_index`` of the ontologies holding both concepts; a
    composite pair's score is read from c1's row in c2's ontology
    (``partner_scores``).
    """
    n1, n2 = len(c1.children), len(c2.children)
    if not n1 and not n2:
        return ONE if c1.key == c2.key else ZERO
    if not n1 or n1 != n2:
        return ZERO
    for later in kids.sources:
        if c2.id in later.concepts:
            return partner_scores(c1, later, kids).get(c2.id, ZERO)
    raise KeyError(c2.id)


def partner_scores(c1: Concept, later: Ontology, kids: ChildrenIndex) -> dict[str, Fraction]:
    """c1's row in ``later``: each composite of ``later`` that scores above 0
    against composite c1 -> its exact syntactic score.  Do not modify.

    The row joins c1's children: an atomic child's partners are the atoms
    of ``later`` with its key, a composite child's are its own row, and
    each partner reaches the composites of c1's arity that hold it
    (``kids.parents``).  A candidate's total is the best assignment over
    its nonzero cells: their count when all pair two atoms and no child
    sits in two cells, else the atomic cells counted by key plus
    ``max_weight_assignment`` over the composite ones (``_cells_total``),
    as an atomic child scores 0 against a composite one.  Rows are built
    bottom-up from an explicit stack, so no composition depth meets the
    recursion limit, once per index, into ``kids.rows``; they read only
    the component ontologies, which enrichment never writes.  Atomic
    partners come from ``kids.concepts_by_key(later)``, and scores from
    ``kids.fractions``.
    """
    rows = kids.rows.setdefault(id(later), {})
    stack = [c1]
    while c1.id not in rows:
        a = stack.pop()
        if a.id not in rows:
            pending = [x for x in kids[a.id] if x.children and x.id not in rows]
            if pending:
                stack += [a, *pending]  # their rows first
            else:
                rows[a.id] = _partner_row(a, later, kids, rows)
    return rows[c1.id]


def _partner_row(c1: Concept, later: Ontology, kids: ChildrenIndex,
                 rows: dict[str, dict[str, Fraction]]) -> dict[str, Fraction]:
    """c1's row in ``later``, read from its composite children's in ``rows``."""
    children = kids[c1.id]
    n = len(children)
    by_child, terms = kids.parents.get(n, {}), kids.concepts_by_key(later)
    hits: dict[str, int] = {}  # candidate -> its cells of two atoms
    cells: dict[str, list[tuple[str, str, Fraction]]] = {}  # its cells of two composites
    slow: set[str] = set()  # the candidates whose total may not be their cell count
    for x in children:
        if x.children:
            for y, score in rows[x.id].items():
                for q in by_child.get(y, ()):
                    cells.setdefault(q, []).append((x.id, y, score))
            continue
        ys = terms.get(x.key, ())
        for y in ys:
            if not y.children:
                for q in by_child.get(y.id, ()):
                    hits[q] = hits.get(q, 0) + 1
        if len(ys) > 1:
            slow.update(q for y in ys if not y.children for q in by_child.get(y.id, ()))
    keys = [x.key for x in children if not x.children]
    slow.update(cells, hits if len(set(keys)) < len(keys) else ())
    row = {q: kids.fractions[count, n] for q, count in hits.items() if q not in slow}
    if slow:
        counts = Counter(keys)
        for q in slow:
            total = (counts & Counter(y.key for y in kids[q] if not y.children)).total()
            if q in cells:
                total += _cells_total(cells[q])
            row[q] = kids.fractions[total, n]
    return row


def _cells_total(cells: list[tuple[str, str, Fraction]]) -> Fraction:
    """The best assignment total over (row, column, weight) cells at distinct
    places: ``max_weight_assignment`` on their rows and columns, padded square."""
    rows = {x: i for i, x in enumerate(dict.fromkeys(x for x, _, _ in cells))}
    cols = {y: j for j, y in enumerate(dict.fromkeys(y for _, y, _ in cells))}
    size = max(len(rows), len(cols))
    square = [[ZERO] * size for _ in range(size)]
    for x, y, weight in cells:
        square[rows[x]][cols[y]] = weight
    return max_weight_assignment(square)[0]


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
    c1: Concept, c2: Concept, od: Ontology, kids: ChildrenIndex, tau: Fraction
) -> Correspondence:
    """The pair's ``Correspondence``: the one statement of the verdict rule.

    The first rule that holds over the relations ``od`` holds between the
    two keys (none when either key is absent) decides score, evidence and
    verdict together:

    1. synonymy -> score 1, Synonym;
    2. homonymy -> score 0, Homonym when the keys are equal, else Distinct
       (homonyms share a term by definition);
    3. otherwise (no relation, or equivalence only) -> the syntactic score,
       Identical when it reaches ``tau`` (an exact integer comparison),
       else Distinct.

    The evidence of rules 1 and 2 lists the relations of that kind (``od``'s
    own tuple when all have it), and its kind is "enriched" when any of them
    was inferred rather than declared.
    Only reads; symmetric in (c1, c2) but for the order of the pair.
    ``kids`` is passed on to ``syntactic_similarity``.
    """
    relations = lookup_relations(od, c1.key, c2.key)
    if relations:
        for kind, score, declared in (("synonymy", ONE, "od_synonymy"),
                                      ("homonymy", ZERO, "od_homonymy")):
            used = tuple(r for r in relations if r.kind == kind)
            if len(used) == len(relations):
                used = relations  # the support ontology's own tuple
            if used:
                inferred = any(r.provenance.startswith("inferred_case") for r in used)
                verdict = "Synonym" if score else "Homonym" if c1.key == c2.key else "Distinct"
                return Correspondence(c1.id, c2.id, score, verdict,
                                      Evidence("enriched" if inferred else declared, used))
    score = syntactic_similarity(c1, c2, kids)
    # score >= tau, in integers (denominators are positive)
    identical = score.numerator * tau.denominator >= tau.numerator * score.denominator
    return Correspondence(c1.id, c2.id, score, "Identical" if identical else "Distinct", SYNTACTIC)
