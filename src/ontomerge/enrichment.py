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
  synonymy/equivalence relations or term equality; the pair is
  inferred synonymous.

The cases and ``enrich`` take one ``RunMaps`` as their only context:
the support ontology, the sources, their children index, and maps that
``align`` keeps for one run (each term's equivalence partners, bridge
ends and case-3 cells, and ``RunMaps.reach``, the lookup and the three
cases read forwards beside their checks).  A commit drops only the
entries it changes, so a term with D equivalence partners costs O(D)
per run, not per concept.  Case 3 asks ``perfect_assignment`` whether
its 0/1 child matrix has a perfect matching.  ``enrich`` alone decides
whether a pair may be enriched (both terms in the support ontology,
joined there by no relation) and alone commits: it resolves the
endpoints once and builds the ``EnrichmentRecord``.  Enrichment only
ever adds relations, never modifies or removes one; as a related pair
is never tried, no pair comes to carry both synonymy and homonymy.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterator, Optional, Sequence

from .matching import perfect_assignment
from .model import Concept, EnrichmentRecord, Ontology, Relation, first_free
from .similarity import children_index, lookup_relations

_CELL_KINDS = ("synonymy", "equivalence")  # what relates two case-3 children
_BRIDGE_KINDS = ("synonymy", "homonymy")  # what bridges two case-2 equivalents


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


def _equivalence_partners(sources: Sequence[Ontology]) -> dict[str, list[tuple[str, Relation]]]:
    """Term -> its (partner term, equivalence relation) pairs in the
    sources, sorted; a term with none is left out."""
    partners: dict[str, list[tuple[str, Relation]]] = {}
    for source in sources:
        for relation in source.semantic_relations():
            if relation.kind == "equivalence":
                ta, tb = source.concepts[relation.a].key, source.concepts[relation.b].key
                partners.setdefault(ta, []).append((tb, relation))
                if ta != tb:
                    partners.setdefault(tb, []).append((ta, relation))
    for found in partners.values():
        found.sort()
    return partners


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


class _Lazy(dict):
    """A dict that builds a missing entry with ``build(key)`` and keeps it."""

    def __init__(self, build):
        super().__init__()
        self.build = build

    def __missing__(self, key):
        value = self[key] = self.build(key)
        return value


class RunMaps:
    """The one context of enrichment: a support ontology and its sources.

    ``od`` is the support ontology ``enrich`` gates on and commits to,
    ``sources`` the component ontologies and ``kids`` their
    ``children_index``.  ``partners`` (term -> equivalence partners)
    reads only the sources, which no commit writes.  The rest is filled
    on first use from ``od`` as enriched so far: ``bridges`` (s1 -> (s2,
    first synonymy or homonymy) for each s2 with a partner, by s2),
    ``cells`` (case 3's term -> related term -> first synonymy or
    equivalence) and each concept's reach.  After its commit ``enrich``
    calls ``forget``, which drops their entries for the two terms and the
    reach of each concept whose key, key's partner or child key is one
    of them.  Build new maps after changing ``od`` any other way.
    """

    def __init__(self, od: Ontology, sources: Sequence[Ontology]):
        # the builders close over locals, not ``self``: a cycle would keep
        # the maps alive after ``align`` returns, until the collector runs
        self.od, self.sources = od, sources
        self.kids = children_index(sources)
        self._ontologies = ontologies = [od, *sources]
        self._partners = partners = _equivalence_partners(sources)
        self.cells = _Lazy(lambda term: first_relations(ontologies, term, _CELL_KINDS))
        self.bridges = _Lazy(lambda s1: sorted(
            (s2, bridge) for s2, bridge in first_relations(ontologies, s1, _BRIDGE_KINDS).items()
            if s2 in partners))
        self._reach: dict[str, tuple[set[str], set[str]]] = {}
        # term -> the ids of the concepts whose reach read it
        self._readers: defaultdict[str, set[str]] = defaultdict(set)

    def partners(self, term: str) -> Sequence[tuple[str, Relation]]:
        return self._partners.get(term, ())

    def paths(self, t1: str) -> Iterator[tuple[str, tuple[Relation, Relation, Relation]]]:
        """Case 2's paths eq(t1, s1), bridge(s1, s2), eq(s2, end) from t1, as
        (end, evidence), sorted by s1, s2, end; each side needs its own
        equivalence, and the bridge is the first synonymy or homonymy."""
        for s1, rel1 in self.partners(t1):
            for s2, bridge in self.bridges[s1]:
                for end, rel2 in self.partners(s2):
                    if rel2 != rel1:
                        yield end, (rel1, rel2, bridge)

    def reach(self, c1: Concept) -> tuple[set[str], set[str]]:
        """The lookup and the three cases read forwards from c1: the keys that
        a relation in ``od`` or a source, or a case-2 path, joins to c1's
        key, and the child keys a case-3 partner (a composite of c1's
        arity) must hold one of: c1's child keys and those its case-3
        cells relate them to.

        Computed once per concept and kept until a commit touches one of
        the terms it read; do not modify the sets.
        """
        found = self._reach.get(c1.id)
        if found is None:
            children = [x.key for x in self.kids[c1.id]]
            partners = [s1 for s1, _ in self.partners(c1.key)]
            keys = {term for o in self._ontologies for term in o.related_terms(c1.key)}
            if partners:
                keys.update(end for end, _ in self.paths(c1.key))
            linked = {key for x in children for key in (x, *self.cells[x])}
            found = self._reach[c1.id] = keys, linked
            for term in (c1.key, *partners, *children):
                self._readers[term].add(c1.id)
        return found

    def forget(self, *terms: str) -> None:
        """Drop the entries that a commit between ``terms`` changes."""
        for term in terms:
            self.bridges.pop(term, None)
            self.cells.pop(term, None)
            for cid in self._readers.get(term, ()):
                self._reach.pop(cid, None)


def infer_via_equivalents(
    t1: str, t2: str, maps: RunMaps
) -> Optional[tuple[str, tuple[Relation, ...]]]:
    """Case 2: the kind of a bridge between declared equivalents, with evidence.

    The first of ``RunMaps.paths`` from t1 that ends at t2 wins; t1's
    paths are walked only when t2 has an equivalence partner.  Returns
    the bridge's kind, which is what gets injected, and the evidence
    (equivalence of t1, equivalence of t2, bridge).
    """
    if not maps.partners(t2):
        return None  # no path ends at t2
    for end, evidence in maps.paths(t1):
        if end == t2:
            return evidence[2].kind, evidence
    return None


def infer_via_children(c1: Concept, c2: Concept, maps: RunMaps) -> Optional[tuple[Relation, ...]]:
    """Case 3: composites whose children pair up through known relations.

    Children (read from ``maps.kids``) relate when their normalized terms
    are equal or a synonymy / equivalence relation between the terms
    exists in the support ontology or any source (the first in
    ``first_relations``, support ontology first, read once per child term
    and run from ``RunMaps.cells``).  A perfect injective matching over
    all n children is required, and ``perfect_assignment`` finds one by
    augmenting paths in O(n * cells); among several perfect matchings it
    picks the one ``max_weight_assignment`` would, whose relations are
    returned as the evidence (empty when every matched pair shares a
    term).  Only distinct parent terms are inferred (a shared term is
    already decided syntactically, and a self-synonymy would break
    pipeline idempotence); the inferred kind is always synonymy.
    """
    if c1.is_atomic or c2.is_atomic or len(c1.children) != len(c2.children):
        return None
    if c1.key == c2.key:
        return None
    kids, cells = maps.kids, maps.cells
    support = [[True if x.key == y.key else cells[x.key].get(y.key)  # True: equal terms
                for y in kids[c2.id]] for x in kids[c1.id]]
    assignment = perfect_assignment(support)
    if assignment is None:
        return None
    return tuple(
        support[i][j] for i, j in enumerate(assignment) if support[i][j] is not True
    )


def enrich(
    c1: Concept, c2: Concept, maps: RunMaps, warnings: Optional[list[str]] = None
) -> Optional[EnrichmentRecord]:
    """Try case 1, then 2, then 3; commit at most one relation to ``maps.od``.

    Only a pair whose terms the support ontology ``maps.od`` holds and
    joins by no relation is tried; for any other ``enrich`` returns None
    at once, so the first derivation for a pair wins, and no pair gains
    both synonymy and homonymy.  The cases only find evidence, in
    ``maps``; this is the one place that resolves the endpoints, builds
    the record and commits it.  On success the support ontology gains
    exactly one relation (plus the second endpoint of a same-term pair,
    when it needed one), lookups for the pair are nonempty afterwards,
    and ``maps`` drops the entries the commit changes.  On failure the
    support ontology is untouched.
    """
    od = maps.od
    t1, t2 = c1.key, c2.key
    if not (od.term_present(t1) and od.term_present(t2)) or lookup_relations(od, t1, t2):
        return None
    direct = next((r for source in maps.sources for r in lookup_relations(source, t1, t2)), None)
    if direct is not None:
        case, kind, evidence = "inferred_case1", direct.kind, (direct,)
    elif (bridged := infer_via_equivalents(t1, t2, maps)) is not None:
        case = "inferred_case2"
        kind, evidence = bridged
    elif (matched := infer_via_children(c1, c2, maps)) is not None:
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
    maps.forget(t1, t2)
    return record
