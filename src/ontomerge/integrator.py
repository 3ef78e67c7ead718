"""Drive the integration pipeline.

Steps: derive one ontology per component, score every cross-component
concept pair that can be other than Distinct against the support
ontology (triggering enrichment where it helps), classify verdicts,
cluster synonym/identical concepts with union-find, merge clusters into
one result ontology, and convert that back into a component.  Everything
is sequential and deterministic: fixed inputs give byte-identical
serialized outputs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace
from fractions import Fraction
from operator import attrgetter
from typing import Iterable, Optional, Sequence

from .enrichment import enrich
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
    pair_space_of,
)
from .similarity import children_index, semantic_similarity
from .terms import normalize_term
from .transform import component_to_ontology, concept_id, ontology_to_component

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

    Returns only the scored pairs.  A pair is scored when its concepts
    share a key, or are composites of equal arity, or when both keys
    occur in the support ontology and one of these holds:

    * relation - the support ontology (as enriched so far) or some
      source has a semantic relation between the two keys: a declared
      one, an earlier injection, or the evidence of enrichment case 1;
    * bridge - both keys have an equivalence partner in some source, so
      enrichment case 2 may find a bridge.

    Every other pair is exactly (0, syntactic, Distinct), as
    ``semantic_similarity`` would score it, and scoring it has no side
    effect: with a key absent from the support ontology no lookup or
    enrichment runs; with both keys present the lookup is empty and
    ``enrich`` returns None without writing or warning, since case 1
    finds no source relation, case 2 no partner, and case 3 needs
    composites of equal arity.  Its flat syntactic score is 0.  Skipping
    such pairs leaves the scan order of the others, and so the
    enrichment order, unchanged.  Enrichment never adds a term to the
    support ontology (it runs only on two present terms and at most adds
    a second endpoint for one of them), so the known keys are fixed.
    The relations are not: a row reads the keys related to c1's from
    the enriched copy and the sources when it starts, and a commit for
    (c1, c2) merges the later concepts of that source with c2's key into
    the rest of the row (a source built from a component holds one
    concept per key and never needs this).  The full list is the
    expansion of the returned one over ``pair_space_of(sources)`` (see
    ``model.pair_rows``).

    Pairs are scored in sorted (source id, concept id) order, source
    pair by source pair, as a scan of every pair would meet them.  The
    given support ontology is copied; enrichment commits land on the
    copy, which is returned.  Verdicts:

    * score 1 via a support-ontology or enriched synonymy -> Synonym;
    * score 0 via homonymy with equal terms -> Homonym (unequal terms are
      merely Distinct: homonyms share a term by definition);
    * syntactic score >= tau -> Identical, with a warning when the terms
      are equal but the support ontology had no say (a latent homonym
      cannot be excluded);
    * anything else -> Distinct.

    Concept ids must be unique across sources: the children index and the
    composite-score memo, both built once per run, are keyed by them.
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
    kids = children_index(ordered)
    enriched_od = od.copy()
    records: list[EnrichmentRecord] = []
    # keys with an equivalence partner in some source: possible case-2 bridges
    bridged = {
        source.concepts[end].key
        for source in ordered
        for relation in source.relations
        if relation.kind == "equivalence"
        for end in (relation.a, relation.b)
    }

    def hook(a: Concept, b: Concept):
        record = enrich(a, b, enriched_od, ordered, kids, warnings=sink)
        if record is not None:
            records.append(record)
        return record

    correspondences: list[Correspondence] = []
    memo: dict[tuple[str, str], Fraction] = {}
    blocks = [_Candidates(source, od, bridged) for source in ordered]
    for i in range(len(ordered)):
        for later in blocks[i + 1:]:
            for c1 in blocks[i].concepts:
                row = later.against(c1, (enriched_od, *ordered))
                position = 0
                while position < len(row):
                    c2 = row[position]
                    position += 1
                    committed = len(records)
                    score, evidence = semantic_similarity(
                        c1, c2, enriched_od, kids, enrich=hook, memo=memo
                    )
                    if len(records) > committed:  # c1's key now relates to c2's
                        same = later.source.concepts_by_term(c2.key)
                        rest = {c.id: c for c in [*row[position:], *same] if c.id > c2.id}
                        row = [*row[:position], *(rest[cid] for cid in sorted(rest))]
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


class _Candidates:
    """One source's concepts and the two lists no ``Ontology`` index answers.

    ``by_arity`` maps a child count to its composites, and ``bridged``
    lists the concepts whose key the support ontology holds and is in
    ``bridged_keys``; like ``concepts``, each is sorted by id.  See
    ``align`` for why ``against`` picks the only pairs that can be other
    than (0, syntactic, Distinct).
    """

    def __init__(self, source: Ontology, od: Ontology, bridged_keys: set[str]):
        self.source = source
        self.od = od
        self.bridged_keys = bridged_keys
        self.concepts = [concept for _, concept in sorted(source.concepts.items())]
        self.by_arity: dict[int, list[Concept]] = {}
        self.bridged: list[Concept] = []
        for concept in self.concepts:
            if concept.children:
                self.by_arity.setdefault(len(concept.children), []).append(concept)
            if concept.key in bridged_keys and od.term_present(concept.key):
                self.bridged.append(concept)

    def against(self, concept: Concept, ontologies: Iterable[Ontology]) -> Sequence[Concept]:
        """The concepts to score ``concept`` against, by id.

        Those sharing its key and the composites of its arity; when the
        support ontology holds its key, also those whose key it holds and
        one of ``ontologies`` relates to ``concept``'s key (read now),
        and the bridged ones if its key may take part in a bridge.
        """
        key = concept.key
        parts = [self.source.concepts_by_term(key)]
        if self.od.term_present(key):
            related = {term for ontology in ontologies for term in ontology.related_terms(key)}
            parts.extend(
                self.source.concepts_by_term(term)
                for term in related
                if self.od.term_present(term)
            )
            if key in self.bridged_keys:
                parts.append(self.bridged)
        parts.append(self.by_arity.get(len(concept.children), ()))  # no key 0
        parts = [part for part in parts if part]
        if len(parts) < 2:
            return parts[0] if parts else ()
        union = {c.id: c for part in parts for c in part}
        return [union[cid] for cid in sorted(union)]


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


class _UnionFind:
    """Plain disjoint-set with path compression and union by size."""

    def __init__(self, items: Iterable[str]):
        self.parent = {item: item for item in items}
        self.size = {item: 1 for item in self.parent}

    def find(self, item: str) -> str:
        root = item
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[item] != root:
            self.parent[item], item = root, self.parent[item]
        return root

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]


def build_clusters(
    correspondences: Sequence[Correspondence], concept_ids: Iterable[str]
) -> list[tuple[str, ...]]:
    """Partition concepts by union-find over Synonym/Identical edges.

    Unmatched concepts stay singletons.  Raises HomonymClusterCollision
    when the transitive closure would pull a Homonym-verdict pair into one
    cluster; the error carries the connecting chain of edges.
    """
    ids = sorted(set(concept_ids))
    uf = _UnionFind(ids)
    merging = [c for c in correspondences if c.verdict in ("Synonym", "Identical")]
    for corr in merging:
        uf.union(corr.c1, corr.c2)
    for corr in correspondences:
        if corr.verdict != "Homonym":
            continue
        if uf.find(corr.c1) == uf.find(corr.c2):
            chain = _edge_chain(merging, corr.c1, corr.c2)
            path = " ; ".join(f"{a} -[{v}]- {b}" for a, b, v in chain)
            raise HomonymClusterCollision(
                f"homonym pair ({corr.c1}, {corr.c2}) would land in one cluster "
                f"via: {path}",
                chain=chain,
            )
    groups: dict[str, list[str]] = {}
    for cid in ids:
        groups.setdefault(uf.find(cid), []).append(cid)
    return sorted(tuple(sorted(members)) for members in groups.values())


def _edge_chain(
    edges: Sequence[Correspondence], start: str, goal: str
) -> list[tuple[str, str, str]]:
    """Shortest path from start to goal through merge edges, as edge triples."""
    adjacency: dict[str, list[tuple[str, Correspondence]]] = {}
    for corr in edges:
        adjacency.setdefault(corr.c1, []).append((corr.c2, corr))
        adjacency.setdefault(corr.c2, []).append((corr.c1, corr))
    previous: dict[str, tuple[str, Correspondence]] = {}
    frontier = [start]
    seen = {start}
    while frontier and goal not in seen:
        nxt = []
        for node in frontier:
            for neighbor, corr in sorted(adjacency.get(node, []), key=lambda t: t[0]):
                if neighbor in seen:
                    continue
                seen.add(neighbor)
                previous[neighbor] = (node, corr)
                nxt.append(neighbor)
        frontier = nxt
    chain: list[tuple[str, str, str]] = []
    node = goal
    while node != start:
        node_prev, corr = previous[node]
        chain.append((node_prev, node, corr.verdict))
        node = node_prev
    chain.reverse()
    return chain


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
    same-termed homonyms stay tellable apart.  part_of edges and
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
    displays = [
        _cluster_display(members, member_concept, od, homonym_endpoints, owner_id)
        for members in partition
    ]
    _disambiguate_displays(displays, partition, member_concept, owner_id, sink)

    cluster_of: dict[str, str] = {}
    cluster_ids = []
    for members, display in zip(partition, displays):
        cid = f"{MERGED_ID}#{normalize_term(display)}"
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
    for members, display, cid in zip(partition, displays, cluster_ids):
        term_keys: dict[str, str] = {}
        for member in members:
            concept = member_concept[member]
            term_keys.setdefault(concept.key, concept.term)
        aliases = tuple(
            raw for key, raw in sorted(term_keys.items()) if key != normalize_term(display)
        )
        children = set()
        attributes = set()
        associations = set()
        for member in members:
            concept = member_concept[member]
            attributes.update(concept.attributes)
            for child in concept.children:
                child_cid = cluster_of[child]
                if child_cid == cid:
                    sink.append(
                        f"dropping self-composition of {cid!r} introduced by merging "
                        f"{member!r}"
                    )
                    continue
                children.add(child_cid)
            for assoc in concept.associations:
                target_cid = cluster_of[concept_id(owner_id[member], assoc.target)]
                associations.add((display_of[target_cid], assoc.label))
        merged.add_concept(
            Concept(
                id=cid,
                term=display,
                children=tuple(sorted(children)),
                attributes=tuple(sorted(attributes)),
                associations=tuple(sorted(associations)),
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
) -> str:
    flagged = sorted(
        (member_concept[m].key, m)
        for m in members
        if m in homonym_endpoints
    )
    if flagged:
        _, member = flagged[0]
        return f"{member_concept[member].term} ({owner_id[member]})"
    by_term: dict[str, str] = {}
    for member in sorted(members):
        concept = member_concept[member]
        by_term.setdefault(concept.key, concept.term)
    in_od = sorted(key for key in by_term if od.term_present(key))
    chosen = in_od[0] if in_od else sorted(by_term)[0]
    return by_term[chosen]


def _disambiguate_displays(
    displays: list[str],
    partition: Sequence[tuple[str, ...]],
    member_concept: dict[str, Concept],
    owner_id: dict[str, str],
    sink: list[str],
) -> None:
    """Suffix colliding display terms with a source id (in place).

    The suffix is the smallest source id among the cluster's members
    whose key is the display's key.  A source holds one concept per key,
    so two clusters sharing a display get different suffixes.  A display
    no member bears (a homonym's "<term> (<source id>)") falls back to
    the source of the first member.
    """
    groups: dict[str, list[int]] = {}
    for index, display in enumerate(displays):
        groups.setdefault(normalize_term(display), []).append(index)
    for key, indexes in sorted(groups.items()):
        if len(indexes) < 2:
            continue
        for index in indexes:
            members = partition[index]
            owner = min(
                (owner_id[m] for m in members if member_concept[m].key == key),
                default=owner_id[members[0]],
            )
            sink.append(
                f"display term {key!r} used by several clusters; suffixing with "
                f"source id {owner!r}"
            )
            displays[index] = f"{displays[index]} ({owner})"


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
            suffix = 2
            while f"{component.id}~{suffix}" in taken:
                suffix += 1
            new_id = f"{component.id}~{suffix}"
            taken.add(new_id)
            warnings.append(f"duplicate component id {component.id!r} renamed to {new_id!r}")
            component = replace(component, id=new_id)
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
