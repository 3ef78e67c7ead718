"""Infer missing support-ontology relations from the component ontologies.

When the support ontology has no relation for a concept pair, three cases
are tried in order.  Each only looks for evidence and returns it:

* case 1 - some single source ontology already declares a semantic
  relation between the two terms (``_first_relation`` over the sources);
  its kind is copied into the support ontology.
* case 2 (``infer_via_equivalents``) - each term has a declared
  equivalent in the sources and a synonymy or homonymy relation bridges
  the two equivalents (in the support ontology or any source); the
  bridge's kind is propagated to the pair.
* case 3 (``infer_via_children``) - both concepts are composites of the
  same arity whose children can be perfectly paired through known
  synonymy/equivalence relations or term equality (children read from
  ``similarity.children_index``); the pair is inferred synonymous.

``enrich`` alone commits: it runs the idempotence and contradiction
guard, resolves the endpoints once, and builds the ``EnrichmentRecord``.
Enrichment only ever adds relations, never modifies or removes one, and
refuses any injection that would make a pair carry both synonymy and
homonymy.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .matching import max_weight_assignment
from .model import SEMANTIC_KINDS, Concept, EnrichmentRecord, Ontology, Relation
from .similarity import ChildrenIndex, lookup_relations


class ResolvedEndpoints(NamedTuple):
    """Support-ontology endpoints for an injected relation.

    ``create`` lists concepts that must be added first (a second
    same-termed concept when a homonymy needs two distinct endpoints, or
    a fresh concept when the term has no explicit one yet).  ``notes``
    carries ambiguity warnings.
    """

    a: str
    b: str
    create: tuple[Concept, ...]
    notes: tuple[str, ...]


def resolve_endpoints(od: Ontology, t1: str, t2: str) -> ResolvedEndpoints:
    """Pick the support-ontology concepts an injected relation should join.

    Existing concepts bearing the terms are reused, preferring the
    lexicographically smallest ids; missing endpoints are materialized
    with deterministic ids derived from the ontology id and the term.
    """
    create: list[Concept] = []
    notes: list[str] = []

    def fresh_id(term: str) -> str:
        base = f"{od.id}#{term}"
        candidate = base
        suffix = 2
        taken = set(od.concepts) | {c.id for c in create}
        while candidate in taken:
            candidate = f"{base}~{suffix}"
            suffix += 1
        return candidate

    def endpoint(term: str, skip: Optional[str] = None) -> str:
        existing = [c.id for c in od.concepts_by_term(term) if c.id != skip]
        if existing:
            if len(existing) > 1:
                notes.append(
                    f"term {term!r} names several support-ontology concepts "
                    f"({', '.join(existing)}); attaching to {existing[0]!r}"
                )
            return existing[0]
        cid = fresh_id(term)
        create.append(Concept(id=cid, term=term))
        return cid

    a = endpoint(t1)
    if t1 == t2:
        b = endpoint(t2, skip=a)  # same term needs two distinct endpoints
    else:
        b = endpoint(t2)
    return ResolvedEndpoints(a=a, b=b, create=tuple(create), notes=tuple(notes))


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


def _first_relation(
    ontologies: list[Ontology], s1: str, s2: str, kinds: tuple[str, ...]
) -> Optional[Relation]:
    """First relation of one of ``kinds`` between two terms, ontologies in order."""
    for ontology in ontologies:
        for relation in lookup_relations(ontology, s1, s2):
            if relation.kind in kinds:
                return relation
    return None


def infer_via_equivalents(
    t1: str, t2: str, sources: list[Ontology], od: Ontology
) -> Optional[tuple[str, tuple[Relation, ...]]]:
    """Case 2: the kind of a bridge between declared equivalents, with evidence.

    Candidates are scanned lexicographically by (partner-of-t1 term,
    partner-of-t2 term); the first pair with a bridge wins.  Returns the
    bridge's kind, which is what gets injected, and the evidence
    (equivalence of t1, equivalence of t2, bridge).
    """
    left = _equivalence_partners(t1, sources)
    right = _equivalence_partners(t2, sources) if left else []
    for s1, rel1 in left:
        for s2, rel2 in right:
            if rel2 == rel1:
                continue  # each side needs its own equivalence edge
            bridge = _first_relation([od, *sources], s1, s2, ("synonymy", "homonymy"))
            if bridge is not None:
                return bridge.kind, (rel1, rel2, bridge)
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
    or any source (the first found, support ontology first, from one
    ``related_terms`` read per ontology and left child, empty ones dropped).  A perfect
    injective matching over all n children is required: a child that
    relates to no child of the other side rules it out at once, else
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
    ontologies = [od, *sources]
    support: list[list[Optional[Relation]]] = []
    weights = []
    for kid1 in left:
        related = [terms for ontology in ontologies if (terms := ontology.related_terms(kid1.key))]
        row_rel: list[Optional[Relation]] = []
        row_w = []
        for kid2 in right:
            relation = None  # term equality needs no relation
            if related and kid1.key != kid2.key:
                for terms in related:
                    for candidate in terms.get(kid2.key, ()):
                        if candidate.kind in ("synonymy", "equivalence"):
                            relation = candidate
                            break
                    if relation is not None:
                        break
            row_rel.append(relation)
            row_w.append(1 if kid1.key == kid2.key or relation is not None else 0)
        support.append(row_rel)
        weights.append(row_w)
    if not all(map(any, weights)) or not all(map(any, zip(*weights))):
        return None  # some child relates to no child of the other side
    total, assignment = max_weight_assignment(weights)
    if total != len(left):
        return None
    return tuple(
        support[i][j] for i, j in enumerate(assignment) if support[i][j] is not None
    )


def enrich(
    c1: Concept,
    c2: Concept,
    od: Ontology,
    sources: list[Ontology],
    kids: ChildrenIndex,
    warnings: Optional[list[str]] = None,
) -> Optional[EnrichmentRecord]:
    """Try case 1, then 2, then 3; commit at most one relation to ``od``.

    The cases only find evidence; this is the one place that checks it
    against ``od``, resolves the endpoints, builds the record and
    commits it.  On success the support ontology gains exactly one
    relation (plus any endpoint concepts it needed) and lookups for the
    pair are nonempty afterwards.  On failure ``od`` is untouched.  An
    injection of a relation ``od`` already holds is skipped, and one that
    would put synonymy and homonymy on the same pair is refused with a
    warning.  These guards protect direct library calls: ``align`` calls
    only for a pair whose keys ``od`` holds and joins by no relation, so
    there the first derivation wins, in scan order.  ``kids`` is the
    ``children_index`` of the sources, read by case 3.
    """
    sink = warnings if warnings is not None else []
    t1 = c1.key
    t2 = c2.key

    direct = _first_relation(sources, t1, t2, SEMANTIC_KINDS)
    if direct is not None:
        case, kind, evidence = "inferred_case1", direct.kind, (direct,)
    elif (bridged := infer_via_equivalents(t1, t2, sources, od)) is not None:
        case = "inferred_case2"
        kind, evidence = bridged
    elif (matched := infer_via_children(c1, c2, sources, od, kids)) is not None:
        case, kind, evidence = "inferred_case3", "synonymy", matched
    else:
        return None

    existing = lookup_relations(od, t1, t2)
    if any(r.kind == kind for r in existing):
        return None  # already known; keep enrichment idempotent
    opposite = {"synonymy": "homonymy", "homonymy": "synonymy"}.get(kind)
    if opposite and any(r.kind == opposite for r in existing):
        sink.append(
            f"enrichment refused for ({c1.id}, {c2.id}): injecting {kind} would "
            f"contradict an existing {opposite} relation between "
            f"{t1!r} and {t2!r}"
        )
        return None

    resolved = resolve_endpoints(od, t1, t2)
    record = EnrichmentRecord(
        injected=Relation(a=resolved.a, b=resolved.b, kind=kind, provenance=case),
        evidence=evidence,
        pair=(c1.id, c2.id),
    )
    for concept in resolved.create:
        od.add_concept(concept)
    sink.extend(resolved.notes)
    od.add_relation(record.injected)
    return record
