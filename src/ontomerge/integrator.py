"""Drive the integration pipeline.

Steps: derive one ontology per component, take every cross-component
concept pair that can be other than Distinct, enrich the support
ontology where it knows both terms but joins them by nothing, score the
pair against it, classify verdicts, cluster synonym/identical concepts
by connected parts, merge clusters into one result ontology, and
convert that back into a component.  Everything is sequential and
deterministic: fixed inputs give byte-identical serialized outputs.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import product
from operator import attrgetter, itemgetter
from typing import Iterable, Optional, Sequence

from .enrichment import RunMaps, enrich
from .errors import HomonymClusterCollision, SchemaViolation
from .model import (
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
from .similarity import semantic_similarity
from .terms import normalize_term
from .transform import component_to_ontology, ontology_to_component

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
    concepts of a later source.  The fixed part, found once per source
    pair by one join, is what no commit can change: the concepts that
    share c1's key or score above 0 syntactically (equal-key atomic pairs
    lifted bottom-up to the equal-arity pairs of their parents).  When
    the support ontology holds c1's key, ``candidates`` adds the concepts
    whose keys it holds and that ``RunMaps.reach`` gives for c1 against
    the support ontology as enriched so far: a concept whose key it
    reaches, or a composite of c1's arity with a child whose key it links
    to a child of c1.  Every other pair is exactly (0, syntactic, Distinct)
    and would not be enriched, so skipping it leaves the scan order of
    the others, and so the enrichment order, unchanged.  The full list
    is the expansion of the returned one over ``pair_space_of(sources)``
    (see ``model.pair_rows``).

    Pairs are taken in sorted (source id, concept id) order, source
    pair by source pair, as a scan of every pair would meet them.  Each
    pair is enriched, then scored: ``enrich`` is called once for each
    pair of a row whose key the support ontology holds, and itself
    declines a pair it may not enrich; ``semantic_similarity`` then only
    reads.  A commit adds no term to the support ontology, so after it
    the rest of the row is read again through ``candidates``.  ``enrich``
    and ``reach`` read one ``enrichment.RunMaps``, and the scorer its
    children index; it is built here over a copy of the support ontology
    and dropped on return.  Each concept's reach is computed once and
    again only after a commit touches a term it read, so a concept costs
    one ``reach`` per run, not one per later source.  Enrichment commits
    land on the copy, which is returned with the records.  Verdicts:

    * score 1 via a support-ontology or enriched synonymy -> Synonym;
    * score 0 via homonymy with equal terms -> Homonym (unequal terms are
      merely Distinct: homonyms share a term by definition);
    * syntactic score >= tau -> Identical, with a warning when the terms
      are equal but the support ontology had no say (a latent homonym
      cannot be excluded);
    * anything else -> Distinct.

    Concept ids must be unique across sources: the indexes, maps and
    memos built once per run are keyed by them.
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
    parents: dict[str, dict[int, list[str]]] = {}  # child id -> arity -> parent ids
    for source in ordered:
        for concept in source.concepts.values():
            arity = len(concept.children)
            for child in set(concept.children):
                parents.setdefault(child, {}).setdefault(arity, []).append(concept.id)

    def fixed_partners(source: Ontology, later: Ontology) -> dict[str, set[str]]:
        """c1 id -> the ids of its row's fixed part in ``later`` (see above)."""
        partners: dict[str, set[str]] = {}
        lifted = []
        for c1 in source.concepts.values():
            for c2 in later.concepts_by_term(c1.key):
                partners.setdefault(c1.id, set()).add(c2.id)
                if c1.is_atomic and c2.is_atomic:
                    lifted.append((c1.id, c2.id))
        seen = set(lifted)
        for x, y in lifted:  # grows as it is read: each pair lifts once
            above = parents.get(y, {})
            for arity, ps in parents.get(x, {}).items():
                for p, q in product(ps, above.get(arity, ())):
                    if (p, q) not in seen:
                        seen.add((p, q))
                        lifted.append((p, q))
                        partners.setdefault(p, set()).add(q)
        return partners

    def candidates(c1: Concept, later: Ontology) -> set[str]:
        """The ids of the part of c1's row in ``later`` that a commit can change."""
        keys, linked = maps.reach(c1)
        found = {c.id for term in keys for c in later.concepts_by_term(term)}
        arity = len(c1.children)
        found.update(p for term in linked for y in later.concepts_by_term(term)
                     for p in parents.get(y.id, {}).get(arity, ()))
        return {c for c in found if enriched_od.term_present(later.concepts[c].key)}

    correspondences: list[Correspondence] = []
    memo: dict[tuple[str, str], Fraction] = {}
    atoms: dict[str, Counter[str]] = {}
    for i, source in enumerate(ordered):
        for later in ordered[i + 1:]:
            fixed = fixed_partners(source, later)
            for cid in sorted(source.concepts):
                c1 = source.concepts[cid]
                known = enriched_od.term_present(c1.key)  # enrichment adds no term
                partners = fixed.get(cid, ())
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
                    score, evidence = semantic_similarity(c1, c2, enriched_od, kids, memo=memo,
                                                          atoms=atoms)
                    verdict = _classify(c1, c2, score, evidence.kind, tau)
                    if verdict == "Identical" and c1.key == c2.key:
                        sink.append(
                            f"{ASSUMED_IDENTICAL_WARNING} for term "
                            f"{c1.key!r} ({c1.id}, {c2.id})"
                        )
                    correspondences.append(
                        Correspondence(
                            c1=c1.id, c2=c2.id, score=score,
                            verdict=verdict, evidence=evidence,
                        )
                    )
    return correspondences, enriched_od, records


def _classify(c1: Concept, c2: Concept, score: Fraction, kind: str, tau: Fraction) -> str:
    # integer comparisons (denominators are positive): score == 1, score == 0,
    # score >= tau
    num, den = score.numerator, score.denominator
    if kind in ("od_synonymy", "enriched") and num == den:
        return "Synonym"
    if kind in ("od_homonymy", "enriched") and num == 0:
        if c1.key == c2.key:
            return "Homonym"
        return "Distinct"
    if kind == "syntactic" and num * tau.denominator >= tau.numerator * den:
        return "Identical"
    return "Distinct"


def build_clusters(
    correspondences: Sequence[Correspondence], concept_ids: Iterable[str]
) -> list[tuple[str, ...]]:
    """Partition concepts into the connected parts of the Synonym/Identical edges.

    Each part is walked from its smallest id; unmatched concepts stay
    singletons.  Raises SchemaViolation when a merge edge or a Homonym
    pair names a concept outside ``concept_ids``, and
    HomonymClusterCollision when a Homonym pair lands in one part; the
    error carries the connecting chain of edges.
    """
    adjacency: dict[str, list[tuple[str, str]]] = {cid: [] for cid in sorted(set(concept_ids))}
    for corr in correspondences:
        if corr.verdict == "Distinct":
            continue
        if corr.c1 not in adjacency or corr.c2 not in adjacency:
            raise SchemaViolation(
                f"{corr.verdict} pair {corr.pair} names a concept outside the clustered ids"
            )
        if corr.verdict != "Homonym":
            adjacency[corr.c1].append((corr.c2, corr.verdict))
            adjacency[corr.c2].append((corr.c1, corr.verdict))
    part: dict[str, list[str]] = {}  # concept id -> the members of its part
    groups = []
    for root in adjacency:  # by id
        if root in part:
            continue
        members = part[root] = [root]
        for node in members:  # the walk appends what it reaches
            for neighbor, _ in adjacency[node]:
                if neighbor not in part:
                    part[neighbor] = members
                    members.append(neighbor)
        groups.append(tuple(sorted(members)))
    for corr in correspondences:
        if corr.verdict == "Homonym" and part[corr.c1] is part[corr.c2]:
            chain = _edge_chain(adjacency, corr.c1, corr.c2)
            path = " ; ".join(f"{a} -[{v}]- {b}" for a, b, v in chain)
            raise HomonymClusterCollision(
                f"homonym pair ({corr.c1}, {corr.c2}) would land in one cluster "
                f"via: {path}",
                chain=chain,
            )
    return groups  # sorted: each starts with its part's smallest id


def _edge_chain(
    adjacency: dict[str, list[tuple[str, str]]], start: str, goal: str
) -> list[tuple[str, str, str]]:
    """Shortest path from start to goal through the merge edges of
    ``adjacency``, as edge triples.  The walk is breadth first and takes
    each node's neighbours by id, so of several shortest paths it gives
    the one it reaches first."""
    previous = {start: (start, start, "")}  # node -> the edge that reached it
    queue = [start]
    for node in queue:
        for neighbor, verdict in sorted(adjacency[node], key=itemgetter(0)):
            if neighbor not in previous:
                previous[neighbor] = (node, neighbor, verdict)
                queue.append(neighbor)
    chain = []
    while goal != start:
        chain.append(previous[goal])
        goal = previous[goal][0]
    return chain[::-1]


def merge(
    partition: Sequence[tuple[str, ...]],
    sources: Sequence[Ontology],
    od: Ontology,
    correspondences: Sequence[Correspondence] = (),
    warnings: Optional[list[str]] = None,
) -> tuple[Ontology, list[Cluster]]:
    """Collapse each cluster into one concept of the merged ontology.

    Returns the merged ontology (id ``MERGED_ID``) and one ``Cluster`` per
    part of ``partition``, sorted by (term, members).  Every source
    concept must lie in exactly one part.  The canonical term of a
    cluster prefers member terms that occur in the support ontology
    (smallest normalized term wins); clusters touched by a Homonym
    verdict are instead displayed as "<term> (<source id>)" so
    same-termed homonyms stay tellable apart.  A key's term, for the
    display and the aliases alike, is that of the member of smallest id,
    so the order of a part's members changes nothing.  part_of edges and
    association metadata are re-targeted to cluster representatives and
    deduplicated.  Warnings are appended to ``warnings``.  Raises
    HomonymClusterCollision when a Homonym pair shares a cluster.
    """
    sink = warnings if warnings is not None else []
    homonym_endpoints: set[str] = set()
    for corr in correspondences:
        if corr.verdict == "Homonym":
            homonym_endpoints.update(corr.pair)

    member_concept = {cid: c for source in sources for cid, c in source.concepts.items()}
    owner_id = {cid: source.id for source in sources for cid in source.concepts}
    placed = Counter(member for members in partition for member in members)
    missing = sorted(member_concept.keys() - placed.keys())
    if missing:
        raise SchemaViolation(f"concepts missing from clusters: {missing}")
    unknown = sorted(placed.keys() - member_concept.keys())
    if unknown:
        raise SchemaViolation(f"concepts in clusters but in no source: {unknown}")
    doubled = sorted(cid for cid, n in placed.items() if n > 1)
    if doubled:
        raise SchemaViolation(f"concepts appear in several clusters: {doubled}")
    if not all(partition):
        raise SchemaViolation("a cluster of the partition is empty")
    displays: list[str] = []
    keys: list[str] = []  # filled pair by pair: a list of pairs would raise the tracemalloc peak
    for members in partition:
        display, key = _cluster_display(members, member_concept, od, homonym_endpoints, owner_id)
        displays.append(display)
        keys.append(key)
    _disambiguate_displays(displays, keys, partition, member_concept, owner_id, sink)

    cluster_of: dict[str, str] = {}
    cluster_ids = []
    for members, key in zip(partition, keys):
        cid = f"{MERGED_ID}#{key}"
        cluster_ids.append(cid)
        for member in members:
            cluster_of[member] = cid
    if len(set(cluster_ids)) != len(cluster_ids):
        raise SchemaViolation(
            "merged concept terms collide after disambiguation; support ontology "
            "or inputs are contradictory"
        )
    display_of = dict(zip(cluster_ids, displays))

    merged = Ontology(MERGED_ID)
    clusters: list[Cluster] = []
    for members, display, key, cid in zip(partition, displays, keys, cluster_ids):
        concepts = [member_concept[member] for member in members]
        if len(concepts) == 1:
            aliases = (concepts[0].term,) if concepts[0].key != key else ()
        else:
            term_of = _key_terms(members, member_concept)
            aliases = tuple(raw for k, raw in sorted(term_of.items()) if k != key)
        children, attributes, associations = (), (), ()  # () for a field no member has
        for member, concept in zip(members, concepts):
            if concept.children and not children:
                children = set()
            for child in concept.children:
                child_cid = cluster_of[child]
                if child_cid == cid:
                    sink.append(
                        f"dropping self-composition of {cid!r} introduced by merging "
                        f"{member!r}"
                    )
                    continue
                children.add(child_cid)
            if concept.attributes:
                attributes = {*attributes, *concept.attributes}
            if concept.associations:
                owner = owner_id[member]
                associations = {*associations, *(
                    (display_of[cluster_of[f"{owner}#{normalize_term(t)}"]], label)
                    for t, label in concept.associations
                )}
        merged.add_concept(
            Concept(
                id=cid,
                term=display,
                children=tuple(children),
                attributes=tuple(attributes),
                associations=tuple(associations),
                aliases=aliases,
            )
        )
        clusters.append(Cluster(term=display, members=tuple(members), aliases=aliases))
    merged.validate()

    for corr in correspondences:
        if corr.verdict == "Homonym" and cluster_of[corr.c1] == cluster_of[corr.c2]:
            raise HomonymClusterCollision(
                f"homonym pair ({corr.c1}, {corr.c2}) ended up in cluster "
                f"{cluster_of[corr.c1]!r}"
            )
    return merged, sorted(clusters, key=lambda cl: (cl.term, cl.members))


def _cluster_display(
    members: tuple[str, ...],
    member_concept: dict[str, Concept],
    od: Ontology,
    homonym_endpoints: set[str],
    owner_id: dict[str, str],
) -> tuple[str, str]:
    """A cluster's display term and its key, which only a homonym's
    "<term> (<source id>)" display normalizes; a singleton's is its member's."""
    flagged = [m for m in members if m in homonym_endpoints]
    if flagged:
        _, member = min((member_concept[m].key, m) for m in flagged)
        display = f"{member_concept[member].term} ({owner_id[member]})"
        return display, normalize_term(display)
    if len(members) == 1:
        concept = member_concept[members[0]]
        return concept.term, concept.key
    term_of = _key_terms(members, member_concept)
    in_od = [key for key in term_of if od.term_present(key)]
    chosen = min(in_od or term_of)
    return term_of[chosen], chosen


def _key_terms(members: Iterable[str], member_concept: dict[str, Concept]) -> dict[str, str]:
    """Each key of a part's members -> its term on the member of smallest id."""
    return {member_concept[m].key: member_concept[m].term for m in sorted(members, reverse=True)}


def _disambiguate_displays(
    displays: list[str],
    keys: list[str],
    partition: Sequence[tuple[str, ...]],
    member_concept: dict[str, Concept],
    owner_id: dict[str, str],
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
    for key, indexes in sorted(groups.items()):
        if len(indexes) < 2:
            continue
        for index in indexes:
            members = partition[index]
            owner = min(
                (owner_id[m] for m in members if member_concept[m].key == key),
                default=owner_id[min(members)],
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
    component has id ``MERGED_ID`` and name ``MERGED_NAME``.  The one
    ``Report`` is built here from what ``align``, ``build_clusters`` and
    ``merge`` returned and the warnings they appended.  It is sparse: it
    lists the scored pairs, and its ``pair_space`` stands for the
    Distinct rest.
    """
    if len(components) < 2:
        raise SchemaViolation("integration needs at least two components")
    taken = {component.id for component in components}
    kept: set[str] = set()
    warnings: list[str] = []
    deduped = []
    for component in components:
        if component.id in kept:
            new_id = first_free(component.id, taken)
            taken.add(new_id)
            warnings.append(f"duplicate component id {component.id!r} renamed to {new_id!r}")
            component = BusinessComponent(new_id, component.name, component.entities,
                                          component.relations)
        kept.add(component.id)
        deduped.append(component)
    sources = [component_to_ontology(component) for component in deduped]
    correspondences, enriched_od, records = align(sources, od, tau, warnings=warnings)
    all_ids = [cid for source in sources for cid in source.concepts]
    partition = build_clusters(correspondences, all_ids)
    merged, clusters = merge(partition, sources, enriched_od, correspondences, warnings)
    report = Report(
        correspondences=sorted(correspondences, key=attrgetter("c1", "c2")),
        enrichments=sorted(records, key=lambda r: (r.pair, r.injected)),
        clusters=clusters,
        warnings=sorted(warnings),
        pair_space=pair_space_of(sources),
    )
    return ontology_to_component(merged, name=MERGED_NAME), enriched_od, report
