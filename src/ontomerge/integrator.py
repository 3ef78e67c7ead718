"""Drive the integration pipeline.

Steps: take every cross-component concept pair (each component is its
own source ontology) that can be other than Distinct, enrich the support
ontology where it knows both terms but joins them by nothing, score the
pair against it, which gives its verdict, cluster synonym/identical
concepts by connected parts, and write each cluster as one concept of
the merged component.  The merged component carries none of the
relations that the sources declare.  Everything is sequential and
deterministic: fixed inputs give byte-identical serialized outputs.
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter, itemgetter
from typing import Iterable, Optional, Sequence

from .enrichment import RunMaps, enrich
from .errors import HomonymClusterCollision, SchemaViolation
from .model import (
    Association,
    BusinessComponent,
    Cluster,
    Concept,
    Correspondence,
    EnrichmentRecord,
    Ontology,
    Report,
    as_fraction,
    first_free,
    pair_space_of,
)
from .similarity import partner_scores, semantic_similarity
from .terms import normalize_term

ALIAS_PREFIX = "alias: "
DEFAULT_TAU = Fraction(1)
MERGED_ID = "CMr"
MERGED_NAME = "Integrated component"
ASSUMED_IDENTICAL_WARNING = "assumed identical: no O_d coverage"


def align(
    sources: Sequence[Ontology],
    od: Ontology,
    tau: Fraction | float | int = DEFAULT_TAU,
    warnings: Optional[list[str]] = None,
) -> tuple[list[Correspondence], Ontology, list[EnrichmentRecord]]:
    """Score the cross-source concept pairs that can be other than Distinct.

    Returns only the scored pairs.  A row pairs c1 with two sets of
    concepts of a later source.  The fixed part is what no commit can
    change: the concepts that share c1's key and, when c1 is a composite,
    those that score above 0 against it syntactically, c1's row of
    ``similarity.partner_scores``.  When the support ontology holds c1's
    key, ``candidates`` adds the concepts whose keys it holds and that
    ``RunMaps.reach`` gives for c1 against the support ontology as
    enriched so far: a concept whose key it reaches, or a composite of
    c1's arity with a child whose key it links to a child of c1.  Every
    other pair is exactly (0, syntactic, Distinct) and would not be
    enriched, so skipping it leaves the scan order of the others, and so
    the enrichment order, unchanged.  The full list is the expansion of
    the returned one over ``pair_space_of(sources)`` (``model.pair_rows``).

    Pairs are taken in sorted (source id, concept id) order, source
    pair by source pair, as a scan of every pair would meet them.  Each
    pair is enriched, then scored: ``enrich`` is called once for each
    pair of a row whose key the support ontology holds, and itself
    declines a pair it may not enrich; ``semantic_similarity`` then only
    reads.  A commit adds no term to the support ontology, so after it
    the rest of the row is read again through ``candidates``.  ``enrich``
    and ``reach`` read one ``enrichment.RunMaps``, the scorer and
    ``partner_scores`` its ``children_index``; it is built here over a
    copy of the support ontology and dropped on return.  ``reach`` is
    computed once per row whose c1 key the support ontology holds, and
    again after each commit in the row.  Enrichment commits land on the
    copy, which is returned with the records.  ``semantic_similarity``
    alone decides each pair's score, evidence and verdict; an Identical
    pair of equal keys also gets a warning, as the support ontology had
    no say and a latent homonym cannot be excluded.

    Concept ids must be unique across sources: the indexes and maps
    built once per run are keyed by them.
    """
    tau = as_fraction(tau)
    if not 0 < tau <= 1:
        raise SchemaViolation(f"threshold tau must be in (0, 1], got {tau}")
    if len(sources) < 2:
        raise SchemaViolation("alignment needs at least two source ontologies")
    ids = [source.id for source in sources]
    if len(set(ids)) != len(ids):
        raise SchemaViolation(f"source ontology ids must be distinct, got {sorted(ids)}")

    sink = warnings if warnings is not None else []
    ordered = sorted(sources, key=lambda o: o.id)
    enriched_od = od.copy()
    records: list[EnrichmentRecord] = []
    maps = RunMaps(enriched_od, ordered)
    kids = maps.kids

    def candidates(c1: Concept, later: Ontology) -> set[str]:
        """The ids of the part of c1's row in ``later`` that a commit can change."""
        keys, linked = maps.reach(c1)
        terms = kids.concepts_by_key(later)
        found = {c.id for term in keys for c in terms.get(term, ())}
        by_child = kids.parents.get(len(c1.children), {})
        found.update(p for term in linked for y in terms.get(term, ())
                     for p in by_child.get(y.id, ()))
        return {c for c in found if enriched_od.term_present(later.concepts[c].key)}

    correspondences: list[Correspondence] = []
    for i, source in enumerate(ordered):
        for later in ordered[i + 1:]:
            fixed = {}  # every row's fixed part before the rows: the row loop runs faster so
            terms = kids.concepts_by_key(later)
            for c1 in source.concepts.values():
                fixed[c1.id] = [c.id for c in terms.get(c1.key, ())]
                if c1.children:
                    fixed[c1.id] = {*fixed[c1.id], *partner_scores(c1, later, kids)}
            for cid in sorted(source.concepts):
                c1 = source.concepts[cid]
                known = enriched_od.term_present(c1.key)  # enrichment adds no term
                partners = fixed[cid]
                row = sorted({*partners, *candidates(c1, later)} if known else partners,
                             reverse=True)  # popped from the end, by id
                while row:
                    c2 = later.concepts[row.pop()]
                    if known:
                        record = enrich(c1, c2, maps, sink)
                        if record is not None:  # the commit may reach more of the row
                            records.append(record)
                            row = sorted((c for c in {*partners, *candidates(c1, later)}
                                          if c > c2.id), reverse=True)
                    corr = semantic_similarity(c1, c2, enriched_od, kids, tau)
                    if corr.verdict == "Identical" and c1.key == c2.key:
                        sink.append(
                            f"{ASSUMED_IDENTICAL_WARNING} for term "
                            f"{c1.key!r} ({c1.id}, {c2.id})"
                        )
                    correspondences.append(corr)
    return correspondences, enriched_od, records


def build_clusters(
    correspondences: Sequence[Correspondence], concept_ids: Iterable[str]
) -> list[tuple[str, ...]]:
    """Partition concepts into the connected parts of the Synonym/Identical edges.

    Each part is walked from its smallest id; a concept that no merge edge
    touches is its own part, a 1-tuple, and is neither walked nor kept in
    the adjacency, which lists each merge edge's own ``Correspondence``
    under both its ids.  Raises SchemaViolation when a merge edge or a
    Homonym pair names a concept outside ``concept_ids``, and
    HomonymClusterCollision when a Homonym pair lands in one part; the
    error carries the connecting chain of edges.
    """
    known = dict.fromkeys(concept_ids)  # a set of a few hundred ids takes five times the bytes
    adjacency: dict[str, list[Correspondence]] = {}  # only the ids a merge edge touches
    for corr in correspondences:
        if corr.verdict == "Distinct":
            continue
        if corr.c1 not in known or corr.c2 not in known:
            raise SchemaViolation(
                f"{corr.verdict} pair {corr.pair} names a concept outside the clustered ids"
            )
        if corr.verdict != "Homonym":
            adjacency.setdefault(corr.c1, []).append(corr)
            adjacency.setdefault(corr.c2, []).append(corr)
    part: dict[str, list[str]] = {}  # concept id with an edge -> the members of its part
    groups = []
    for root in sorted(known):
        if root not in adjacency:
            groups.append((root,))
        elif root not in part:
            members = part[root] = [root]
            for node in members:  # the walk appends what it reaches
                for edge in adjacency[node]:
                    neighbor = edge.c2 if edge.c1 == node else edge.c1
                    if neighbor not in part:
                        part[neighbor] = members
                        members.append(neighbor)
            groups.append(tuple(sorted(members)))
    for corr in correspondences:
        if corr.verdict == "Homonym" and (
                corr.c1 == corr.c2 or corr.c1 in part and part[corr.c1] is part.get(corr.c2)):
            chain = _edge_chain(adjacency, corr.c1, corr.c2)
            path = " ; ".join(f"{a} -[{v}]- {b}" for a, b, v in chain)
            raise HomonymClusterCollision(
                f"homonym pair ({corr.c1}, {corr.c2}) would land in one cluster "
                f"via: {path}",
                chain=chain,
            )
    return groups  # sorted: each starts with its part's smallest id


def _edge_chain(
    adjacency: dict[str, list[Correspondence]], start: str, goal: str
) -> list[tuple[str, str, str]]:
    """Shortest path from start to goal through the merge edges of
    ``adjacency``, as edge triples.  The walk is breadth first and takes
    each node's edges by neighbour id alone (stable: the first listed edge
    to a neighbour wins), so of several shortest paths it gives the first."""
    previous = {start: (start, start, "")}  # node -> the edge that reached it
    queue = [start]
    for node in queue:
        steps = [(e.c2 if e.c1 == node else e.c1, e.verdict) for e in adjacency.get(node, ())]
        for neighbor, verdict in sorted(steps, key=itemgetter(0)):
            if neighbor not in previous:
                previous[neighbor] = (node, neighbor, verdict)
                queue.append(neighbor)
    chain = []
    while goal != start:
        chain.append(previous[goal])
        goal = previous[goal][0]
    return chain[::-1]


def merge(
    sources: Sequence[Ontology],
    od: Ontology,
    correspondences: Sequence[Correspondence] = (),
    warnings: Optional[list[str]] = None,
) -> tuple[BusinessComponent, list[Cluster]]:
    """Cluster the source concepts; collapse each cluster into one concept ``CMr#<key>``.

    ``sources`` are the components (any ontologies do); no two may hold one concept
    id.  The clusters are the parts that ``build_clusters`` makes of every source
    concept from the Synonym/Identical edges of ``correspondences``: it alone rejects
    an edge naming an unknown concept and a Homonym pair in one part, the latter as
    HomonymClusterCollision with the chain of edges that joined it.  Returns the
    merged component (id ``MERGED_ID``, name ``MERGED_NAME``) and one ``Cluster`` per
    part, sorted by (term, members).  A member's part is recorded in one map, built
    only when some member has children or associations, its only readers; its
    source is looked up among ``sources`` for homonym displays, display collisions
    and associations alone.  A cluster's canonical term prefers member terms that
    occur in the support ontology (smallest normalized term wins); clusters touched
    by a Homonym verdict are instead displayed as "<term> (<source id>)".  A key's
    term, for the display and the aliases alike, is that of the member of smallest
    id.  Children and associations are re-targeted to clusters and deduplicated,
    attributes are the deduplicated union of the members', and the other keys'
    terms become ``alias: <term>`` attributes; a part of one member with no children
    and no associations passes through as that concept under its key.  When some member
    has children, each merged id is built once and merged children hold that string.  No
    declared relation is carried over.  Warnings are appended to ``warnings``.  Raises
    CyclicComposition ("composition cycle: CMr#a -> ... -> CMr#a") when merged
    composition links form a cycle, SchemaViolation when an association target
    names no concept of its member's source.
    """
    sink = warnings if warnings is not None else []
    member_concept = {cid: c for source in sources for cid, c in source.concepts.items()}
    if len(member_concept) != sum(len(source.concepts) for source in sources):
        shared = next(cid for i, source in enumerate(sources) for cid in source.concepts
                      if any(cid in earlier.concepts for earlier in sources[:i]))
        raise SchemaViolation(f"concept id {shared!r} occurs in several sources")
    partition = build_clusters(correspondences, member_concept)
    homonym_endpoints = {member for corr in correspondences if corr.verdict == "Homonym"
                         for member in corr.pair}
    part_of: dict[str, int] = {}  # read only to re-target children and associations
    if any(concept.children or concept.associations for concept in member_concept.values()):
        part_of = {member: index for index, members in enumerate(partition) for member in members}
    displays: list[str] = []
    keys: list[str] = []  # filled pair by pair: a list of pairs would raise the tracemalloc peak
    for members in partition:
        if len(members) == 1 and members[0] not in homonym_endpoints:
            concept = member_concept[members[0]]  # a singleton's display is its member's
            display, key = concept.term, concept.key
        else:
            display, key = _cluster_display(members, member_concept, od, homonym_endpoints, sources)
        displays.append(display)
        keys.append(key)
    if len(set(keys)) != len(keys):
        _disambiguate_displays(displays, keys, partition, member_concept, sources, sink)
        if len(set(keys)) != len(keys):
            raise SchemaViolation(
                "merged concept terms collide after disambiguation; support ontology "
                "or inputs are contradictory"
            )
    merged_ids = ([f"{MERGED_ID}#{key}" for key in keys]  # built once, for children to hold
                  if any(concept.children for concept in member_concept.values()) else [])

    merged = BusinessComponent(MERGED_ID, MERGED_NAME)
    clusters: list[Cluster] = []
    for index, (members, display, key) in enumerate(zip(partition, displays, keys)):
        cid = merged_ids[index] if merged_ids else f"{MERGED_ID}#{key}"
        if len(members) == 1:
            concept = member_concept[members[0]]
            aliases = (concept.term,) if concept.key != key else ()
            if not (concept.children or concept.associations):
                # a plain member passes through: its attributes are sorted, so
                # without a duplicate or an alias they are the merged concept's
                attributes = concept.attributes
                if aliases or attributes and len(set(attributes)) != len(attributes):
                    attributes = tuple(sorted(
                        [*set(attributes), *(ALIAS_PREFIX + a for a in aliases)]))
                merged.concepts[cid] = Concept._assembled(key, cid, display, (), attributes, ())
                clusters.append(tuple.__new__(Cluster, (display, members, aliases)))
                continue
        else:
            term_of = _key_terms(members, member_concept)  # built once, dropped with the part
            aliases = tuple(raw for k, raw in sorted(term_of.items()) if k != key)
        children, attributes, associations = set(), set(), set()
        for member in members:
            concept = member_concept[member]
            for child in concept.children:
                child_part = part_of[child]
                if child_part == index:
                    sink.append(
                        f"dropping self-composition of {cid!r} introduced by merging {member!r}"
                    )
                    continue
                children.add(merged_ids[child_part])
            attributes.update(concept.attributes)
            if concept.associations:
                owner = _owner(member, sources)
                for target, label in concept.associations:
                    target_id = f"{owner.id}#{normalize_term(target)}"
                    if target_id not in owner.concepts:
                        raise SchemaViolation(f"concept {member!r}: association target "
                                              f"{target!r} names no concept of {owner.id!r}")
                    associations.add(Association(displays[part_of[target_id]], label))
        if aliases:  # listed beside an equal attribute, not folded into it
            attributes = [*attributes, *(ALIAS_PREFIX + alias for alias in aliases)]
        merged.concepts[cid] = Concept._assembled(  # keys are distinct, and merged has no index
            key, cid, display, tuple(sorted(children)) if children else (),
            tuple(sorted(attributes)) if attributes else (),
            tuple(sorted(associations)) if associations else ())
        # aliases are in key order, which is name_sort_key order within a cluster
        clusters.append(tuple.__new__(Cluster, (display, members, aliases)))
    merged.validate()
    clusters.sort()  # by (term, members): members of two parts never tie
    return merged, clusters


def _owner(cid: str, sources: Sequence[Ontology]) -> Ontology:
    """The source that holds concept ``cid``."""
    return next(source for source in sources if cid in source.concepts)


def _cluster_display(
    members: tuple[str, ...],
    member_concept: dict[str, Concept],
    od: Ontology,
    homonym_endpoints: set[str],
    sources: Sequence[Ontology],
) -> tuple[str, str]:
    """The display term and key of a cluster with several members or a
    homonym endpoint; only a homonym's "<term> (<source id>)" display is
    normalized."""
    if not homonym_endpoints.isdisjoint(members):
        _, member = min((member_concept[m].key, m) for m in members if m in homonym_endpoints)
        display = f"{member_concept[member].term} ({_owner(member, sources).id})"
        return display, normalize_term(display)
    keys = {member_concept[m].key for m in members}
    chosen = min([key for key in keys if od.term_present(key)] or keys)
    return member_concept[min(m for m in members if member_concept[m].key == chosen)].term, chosen


def _key_terms(members: Iterable[str], member_concept: dict[str, Concept]) -> dict[str, str]:
    """Each key of a part's members -> its term on the member of smallest id."""
    return {member_concept[m].key: member_concept[m].term for m in sorted(members, reverse=True)}


def _disambiguate_displays(
    displays: list[str],
    keys: list[str],
    partition: Sequence[tuple[str, ...]],
    member_concept: dict[str, Concept],
    sources: Sequence[Ontology],
    sink: list[str],
) -> None:
    """Suffix colliding display terms with a source id; re-key only those, in place.

    The suffix is the smallest source id among the cluster's members
    whose key is the display's key.  A source holds one concept per key,
    so two clusters sharing a display get different suffixes.  A display
    no member bears (a homonym's "<term> (<source id>)") falls back to
    the source of the member of smallest id.
    """
    groups: dict[str, list[int]] = {}
    for index, key in enumerate(keys):
        groups.setdefault(key, []).append(index)
    for key, indexes in sorted(item for item in groups.items() if len(item[1]) > 1):
        for index in indexes:
            members = partition[index]
            owner = min(
                (_owner(m, sources).id for m in members if member_concept[m].key == key),
                default=_owner(min(members), sources).id,
            )
            sink.append(
                f"display term {key!r} used by several clusters; suffixing with "
                f"source id {owner!r}"
            )
            displays[index] = f"{displays[index]} ({owner})"
            keys[index] = normalize_term(displays[index])


def integrate(
    components: Sequence[BusinessComponent],
    od: Ontology,
    tau: Fraction | float | int = DEFAULT_TAU,
) -> tuple[BusinessComponent, Ontology, Report]:
    """Full pipeline: components in, merged component + enriched ontology out.

    Components with colliding ids are kept by suffixing each later
    duplicate with the smallest free ~2, ~3, ... (free: no input id and no
    earlier rename), so a result component can be re-integrated against a
    copy of itself.  Outputs are reusable as future inputs.  The merged
    component has id ``MERGED_ID`` and name ``MERGED_NAME``; ``merge``
    clusters what ``align`` found.  The one ``Report`` is built here from
    what those two returned and the warnings they appended.  It is sparse:
    it lists the scored pairs, and its ``pair_space`` stands for the
    Distinct rest.
    """
    if len(components) < 2:
        raise SchemaViolation("integration needs at least two components")
    taken = {component.id for component in components}
    kept: set[str] = set()
    warnings: list[str] = []
    sources = []
    for component in components:
        if component.id in kept:
            new_id = first_free(component.id, taken)
            taken.add(new_id)
            warnings.append(f"duplicate component id {component.id!r} renamed to {new_id!r}")
            component = _renamed(component, new_id)
        kept.add(component.id)
        sources.append(component)
    correspondences, enriched_od, records = align(sources, od, tau, warnings=warnings)
    merged, clusters = merge(sources, enriched_od, correspondences, warnings)
    report = Report(
        correspondences=sorted(correspondences, key=attrgetter("c1", "c2")),
        enrichments=sorted(records, key=lambda r: (r.pair, r.injected)),
        clusters=clusters,
        warnings=sorted(warnings),
        pair_space=pair_space_of(sources),
    )
    return merged, enriched_od, report


def _renamed(component: BusinessComponent, new_id: str) -> BusinessComponent:
    """``component`` under ``new_id``, each concept id re-prefixed once."""

    moved = {cid: f"{new_id}#{c.key}" for cid, c in component.concepts.items()}.__getitem__
    renamed = BusinessComponent(new_id, component.name)
    for concept in component.concepts.values():
        Ontology.add_concept(renamed, Concept._assembled(  # moved gives each id built from its key
            concept.key, moved(concept.id), concept.term, tuple(map(moved, concept.children)),
            concept.attributes, concept.associations))
    for relation in component.semantic_relations():
        renamed.add_relation(relation._replace(a=moved(relation.a), b=moved(relation.b)))
    return renamed
