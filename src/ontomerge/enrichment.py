"""Infer missing support-ontology relations from the component ontologies.

When the support ontology has no relation for a concept pair, three cases
are tried in order.  Each only looks for evidence and returns it:

* case 1 - some single source ontology already declares a semantic
  relation between the two terms (the first, sources in order); its kind
  is copied into the support ontology.
* case 2 (``infer_via_equivalents``) - each term has a declared
  equivalent in the sources and a synonymy or homonymy relation bridges
  the two equivalents (in the support ontology or any source); the
  bridge's kind is propagated to the pair.
* case 3 (``infer_via_children``) - both concepts are composites of the
  same arity whose children can be perfectly paired through known
  synonymy/equivalence relations or term equality (children read from
  ``similarity.children_index``); the pair is inferred synonymous.

``reach`` reads the lookup and the three cases forwards, beside their
checks.  ``enrich`` alone decides whether a pair may be enriched (both
terms in the support ontology, joined there by no relation) and alone
commits: it resolves the endpoints once and builds the
``EnrichmentRecord``.  Enrichment only ever adds relations, never
modifies or removes one; as a related pair is never tried, no pair
comes to carry both synonymy and homonymy.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from .matching import max_weight_assignment
from .model import Concept, EnrichmentRecord, Ontology, Relation, first_free
from .similarity import ChildrenIndex, lookup_relations

_CELL_KINDS = ("synonymy", "equivalence")  # what relates two case-3 children


def resolve_endpoints(od: Ontology, t1: str, t2: str) -> tuple[str, str, list[str]]:
    """The support-ontology concepts an injected relation joins, and notes.

    ``enrich`` tries only terms that ``od`` holds, so each endpoint is the
    concept of smallest id bearing its term, with a note when the term
    names several.  A same-term pair needs two distinct endpoints; when
    its term names one concept, the second is a fresh id, ``<od id>#<term>``
    or its first free ``~n`` suffix, which ``enrich`` adds as a concept.
    """
    notes: list[str] = []

    def endpoint(term: str, skip: Optional[str] = None) -> str:
        existing = [c.id for c in od.concepts_by_term(term) if c.id != skip]
        if len(existing) > 1:
            notes.append(
                f"term {term!r} names several support-ontology concepts "
                f"({', '.join(existing)}); attaching to {existing[0]!r}"
            )
        if existing:
            return existing[0]
        return first_free(f"{od.id}#{term}", od.concepts)

    a = endpoint(t1)
    b = endpoint(t2, skip=a)  # a bears t2 only in a same-term pair
    return a, b, notes


def _equivalence_partners(
    term: str, sources: list[Ontology]
) -> list[tuple[str, Relation]]:
    """(partner term, equivalence relation) pairs touching ``term``, sorted.

    Read from each source's ``related_terms``, keeping equivalences.
    """
    return sorted(
        (partner, relation)
        for source in sources
        for partner, relations in source.related_terms(term).items()
        for relation in relations
        if relation.kind == "equivalence"
    )


def first_relations(
    ontologies: Sequence[Ontology], term: str, kinds: tuple[str, ...]
) -> dict[str, Relation]:
    """Related term -> first relation of one of ``kinds`` joining it to ``term``,
    ontologies in order: the case-2 bridges and the case-3 cells."""
    first: dict[str, Relation] = {}
    for ontology in ontologies:
        for other, relations in ontology.related_terms(term).items():
            if other not in first:
                found = next((r for r in relations if r.kind in kinds), None)
                if found is not None:
                    first[other] = found
    return first


def _equivalence_paths(
    t1: str, sources: list[Ontology], od: Ontology
) -> Iterator[tuple[str, tuple[Relation, Relation, Relation]]]:
    """Case 2's paths eq(t1, s1), bridge(s1, s2), eq(s2, end) from t1, as
    (end, evidence), sorted by s1, s2, end; each side needs its own
    equivalence, and the bridge is the first synonymy or homonymy."""
    for s1, rel1 in _equivalence_partners(t1, sources):
        bridges = first_relations([od, *sources], s1, ("synonymy", "homonymy"))
        for s2 in sorted(bridges):
            for end, rel2 in _equivalence_partners(s2, sources):
                if rel2 != rel1:
                    yield end, (rel1, rel2, bridges[s2])


def infer_via_equivalents(
    t1: str, t2: str, sources: list[Ontology], od: Ontology
) -> Optional[tuple[str, tuple[Relation, ...]]]:
    """Case 2: the kind of a bridge between declared equivalents, with evidence.

    The first path of ``_equivalence_paths`` from t1 that ends at t2
    wins; t1's paths are walked only when t2 has an equivalence partner.
    Returns the bridge's kind, which is what gets injected, and the
    evidence (equivalence of t1, equivalence of t2, bridge).
    """
    if not _equivalence_partners(t2, sources):
        return None  # no path ends at t2
    for end, evidence in _equivalence_paths(t1, sources, od):
        if end == t2:
            return evidence[2].kind, evidence
    return None


def infer_via_children(
    c1: Concept,
    c2: Concept,
    sources: list[Ontology],
    od: Ontology,
    kids: ChildrenIndex,
) -> Optional[tuple[Relation, ...]]:
    """Case 3: composites whose children pair up through known relations.

    Children relate when their normalized terms are equal or a synonymy /
    equivalence relation between the terms exists in the support ontology
    or any source (the first in ``first_relations``, support ontology
    first, read once per left child).  A perfect injective matching over
    all n children is required: a child that relates to no child of the
    other side rules it out at once, else
    ``max_weight_assignment`` finds one in O(n^3) at any arity; among
    several perfect matchings its tie rule picks the one whose relations
    are returned as the evidence (empty when every matched pair shares a
    term).  Only distinct parent terms are inferred (a shared term is
    already decided syntactically, and a self-synonymy would break
    pipeline idempotence); the inferred kind is always synonymy.
    ``kids`` is the ``children_index`` of the sources.
    """
    if c1.is_atomic or c2.is_atomic or len(c1.children) != len(c2.children):
        return None
    if c1.key == c2.key:
        return None
    left, right = kids[c1.id], kids[c2.id]
    related = (first_relations([od, *sources], x.key, _CELL_KINDS) for x in left)
    support = [[None if x.key == y.key else terms.get(y.key) for y in right]  # equal: no relation
               for x, terms in zip(left, related)]
    weights = [[int(x.key == y.key or relation is not None) for y, relation in zip(right, row)]
               for x, row in zip(left, support)]
    if not all(map(any, weights)) or not all(map(any, zip(*weights))):
        return None  # some child relates to no child of the other side
    total, assignment = max_weight_assignment(weights)
    if total != len(left):
        return None
    return tuple(
        support[i][j] for i, j in enumerate(assignment) if support[i][j] is not None
    )


def reach(
    c1: Concept, od: Ontology, sources: list[Ontology], kids: ChildrenIndex
) -> tuple[set[str], set[str]]:
    """The lookup and the three cases read forwards from c1: the keys that
    a relation in ``od`` or a source, or a case-2 path, joins to c1's key,
    and the child keys a case-3 partner (a composite of c1's arity) must
    hold one of: c1's child keys and those its case-3 cells relate them to.
    """
    ontologies = [od, *sources]
    keys = {term for ontology in ontologies for term in ontology.related_terms(c1.key)}
    keys.update(end for end, _ in _equivalence_paths(c1.key, sources, od))
    linked = {key for x in kids[c1.id] for key in
              (x.key, *first_relations(ontologies, x.key, _CELL_KINDS))}
    return keys, linked


def enrich(
    c1: Concept,
    c2: Concept,
    od: Ontology,
    sources: list[Ontology],
    kids: ChildrenIndex,
    warnings: Optional[list[str]] = None,
) -> Optional[EnrichmentRecord]:
    """Try case 1, then 2, then 3; commit at most one relation to ``od``.

    Only a pair whose terms ``od`` holds and joins by no relation is
    tried; for any other ``enrich`` returns None at once, so the first
    derivation for a pair wins, and no pair gains both synonymy and
    homonymy.  The cases only find evidence; this is the one place that
    resolves the endpoints, builds the record and commits it.  On
    success the support ontology gains exactly one relation (plus the
    second endpoint of a same-term pair, when it needed one) and lookups
    for the pair are nonempty afterwards.  On failure ``od`` is
    untouched.  ``kids`` is the ``children_index`` of the sources, read
    by case 3.
    """
    t1, t2 = c1.key, c2.key
    if not (od.term_present(t1) and od.term_present(t2)) or lookup_relations(od, t1, t2):
        return None
    direct = next((r for source in sources for r in lookup_relations(source, t1, t2)), None)
    if direct is not None:
        case, kind, evidence = "inferred_case1", direct.kind, (direct,)
    elif (bridged := infer_via_equivalents(t1, t2, sources, od)) is not None:
        case = "inferred_case2"
        kind, evidence = bridged
    elif (matched := infer_via_children(c1, c2, sources, od, kids)) is not None:
        case, kind, evidence = "inferred_case3", "synonymy", matched
    else:
        return None

    a, b, notes = resolve_endpoints(od, t1, t2)
    record = EnrichmentRecord(
        injected=Relation(a=a, b=b, kind=kind, provenance=case),
        evidence=evidence,
        pair=(c1.id, c2.id),
    )
    if b not in od.concepts:  # the second meaning of a same-term pair
        od.add_concept(Concept(id=b, term=t2))
    if warnings is not None:
        warnings.extend(notes)
    od.add_relation(record.injected)
    return record
