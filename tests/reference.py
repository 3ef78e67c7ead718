"""Reference implementations that tests compare the fast paths against.

``reference_integrate`` is ``integrator.integrate`` as it was before
``merge`` wrote the merged component itself and before a component was
its own ontology: ``reference_sources`` builds each source ontology
from the component's ``Entity`` inputs through the public ``Concept``
constructor (every term normalized again), ``reference_merge`` collapses
the clusters into a validated merged ``Ontology``, and
``ontology_to_component`` converts that back.  Alignment and clustering
are the package's own; only the construction of the sources and of the
merged result is independent.  ``component_inputs`` reads a component
(or any ontology) back into the constructor's arguments, each reference
spelled as the term of the concept it names.

``reference_component_document`` is the component document that
``model_io.component_chunks`` must write for a component built from
given inputs, computed from those inputs alone and rendered by
``json.dumps``.

``reference_evaluate`` is ``evalgen.evaluate`` as it was before it read
``pair_rows``: it builds a validated ``Correspondence`` for every pair
through ``expand_correspondences`` and compares the pair sets whole.

``reference_truth_document`` is the dict that ``evalgen.serialize_truth``
handed ``json.dumps`` before it wrote its rows one at a time.

``reference_build_clusters`` is ``build_clusters`` as it was before a
concept that no merge edge touches skipped the adjacency and the walk:
every id gets an adjacency list and is walked from as a root.
``brute_force_closure`` is ``build_clusters`` without union-find, and
``brute_force_syntactic`` is ``syntactic_similarity`` without matching:
it tries every permutation of the children.  ``naive_first_relation``
scans every relation of every ontology for the first that joins two
terms, and ``naive_concepts_by_term`` and ``naive_term_present`` scan
every concept of an ontology for a normalized term.

``reference_fixed_partners`` is the fixed part of ``align``'s rows as it
was found before the counting join: every equal-key pair, and every
equal-key atomic pair lifted through each arity's parents, pair by pair,
to a closure.  ``reference_syntactic`` is ``syntactic_similarity`` by
plain recursion over the full child matrix, with no cache, no children
index and no split of atomic from composite children.
``reference_infer_via_children`` is case 3 over the full n x n support
matrix, one ``naive_first_relation`` scan per child cell, no early exit
and ``max_weight_assignment`` for the pairing; it reads neither the run
maps nor the children index.  ``nonzero_columns`` lists a square
matrix's nonzero cells as ``perfect_assignment`` reads them.

``reference_perfect_assignment`` is ``matching.perfect_assignment`` as
it was before it gave a row its free largest column at once and left a
one-column row alone in its backward pass: every row walks its
alternating paths, forwards and backwards.

``random_component`` draws a component over the words of ``_WORDS``,
acyclic by construction, for the tests that need many varied inputs.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from fractions import Fraction
from itertools import permutations, product
from typing import Iterable, NamedTuple, Optional, Sequence

from ontomerge import (
    BusinessComponent,
    Cluster,
    ComponentRelation,
    Concept,
    Correspondence,
    Entity,
    HomonymClusterCollision,
    Ontology,
    Relation,
    Report,
    ScenarioMismatch,
    SchemaViolation,
    align,
    build_clusters,
    normalize_term,
)
from ontomerge.evalgen import GroundTruth
from ontomerge.integrator import DEFAULT_TAU, MERGED_ID, MERGED_NAME
from ontomerge.matching import max_weight_assignment
from ontomerge.model import SYNTACTIC, first_free, pair_rows
from ontomerge.model_io import FORMAT_VERSION
from ontomerge.similarity import ChildrenIndex


class ComponentInput(NamedTuple):
    """The arguments of ``BusinessComponent(id, name, entities, relations)``."""

    id: str
    name: str
    entities: tuple[Entity, ...] = ()
    relations: tuple[ComponentRelation, ...] = ()


def component_inputs(ontology: Ontology, name: Optional[str] = None) -> ComponentInput:
    """The constructor arguments that give ``ontology`` as a component, named
    ``name`` (by default the component's own): one entity per concept, named
    by its term, each reference spelled as the term of the concept it names."""
    concepts = ontology.concepts
    entities = tuple(
        Entity(concept.term, concept.attributes, concept.associations,
               [concepts[child].term for child in concept.children])
        for concept in concepts.values()
    )
    relations = tuple(
        ComponentRelation(concepts[rel.a].term, concepts[rel.b].term, rel.kind)
        for rel in ontology.semantic_relations()
    )
    return ComponentInput(ontology.id, ontology.name if name is None else name,
                          entities, relations)


def ontology_to_component(ontology: Ontology, name: str) -> BusinessComponent:
    """Rebuild a component from an ontology through the public constructor.

    Raises SchemaViolation at an unknown child, then whatever
    ``BusinessComponent`` raises: CyclicComposition when part_of links
    form a cycle.
    """
    ontology.check_children()
    return BusinessComponent(*component_inputs(ontology, name))


def reference_sources(inputs: Sequence[ComponentInput]) -> tuple[list[Ontology], list[str]]:
    """The source ontologies of the components that ``inputs`` describe,
    later duplicate ids renamed, with the rename warnings."""
    taken = {component.id for component in inputs}
    kept: set[str] = set()
    warnings: list[str] = []
    sources = []
    for component in inputs:
        cid = component.id
        if cid in kept:
            cid = first_free(cid, taken)
            taken.add(cid)
            warnings.append(f"duplicate component id {component.id!r} renamed to {cid!r}")
        kept.add(cid)
        ontology = Ontology(cid)
        for entity in component.entities:
            ontology.add_concept(Concept(
                id=f"{cid}#{normalize_term(entity.name)}",
                term=entity.name,
                children=[f"{cid}#{normalize_term(child)}" for child in entity.components],
                attributes=entity.attributes,
                associations=entity.associations,
            ))
        for a, b, kind in component.relations:
            ontology.add_relation(Relation(f"{cid}#{normalize_term(a)}",
                                           f"{cid}#{normalize_term(b)}", kind))
        sources.append(ontology)
    return sources, warnings


def reference_component_document(inputs: ComponentInput) -> str:
    """The component document of ``BusinessComponent(*inputs)``: entities by
    key, each child and relation end spelled as the entity it names,
    association targets as given, relation ends in key order."""
    name_of = {normalize_term(entity.name): entity.name for entity in inputs.entities}

    def spelled(reference: str) -> str:
        return name_of[normalize_term(reference)]

    relations = []
    for a, b, kind in inputs.relations:
        a, b = sorted((spelled(a), spelled(b)), key=normalize_term)
        relations.append((a, b, kind))
    document = {
        "format_version": FORMAT_VERSION,
        "id": inputs.id,
        "name": inputs.name,
        "entities": [
            {
                "name": entity.name,
                "attributes": sorted(entity.attributes),
                "associations": [{"target": target, "label": label}
                                 for target, label in sorted(entity.associations)],
                "components": sorted(map(spelled, entity.components), key=normalize_term),
            }
            for entity in sorted(inputs.entities, key=lambda e: normalize_term(e.name))
        ],
        "relations": [{"a": a, "b": b, "kind": kind} for a, b, kind in sorted(relations)],
    }
    return json.dumps(document, ensure_ascii=False, indent=2, sort_keys=True) + "\n"


def reference_integrate(
    components: Sequence[BusinessComponent], od: Ontology, tau=DEFAULT_TAU
) -> tuple[BusinessComponent, list[Cluster], list[str]]:
    """The merged component, the clusters and the sorted warnings of one run."""
    if len(components) < 2:
        raise SchemaViolation("integration needs at least two components")
    sources, warnings = reference_sources(list(map(component_inputs, components)))
    correspondences, enriched_od, _ = align(sources, od, tau, warnings=warnings)
    partition = build_clusters(correspondences, [cid for s in sources for cid in s.concepts])
    merged, clusters = reference_merge(partition, sources, enriched_od, correspondences,
                                       warnings)
    return ontology_to_component(merged, name=MERGED_NAME), clusters, sorted(warnings)


def reference_merge(
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
    deduplicated; the other keys' terms become ``alias: <term>``
    attributes.  Warnings are appended to ``warnings``.  Raises
    HomonymClusterCollision when a Homonym pair shares a cluster, right
    after the partition's checks and before any display is chosen.
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
    part_of = {member: index for index, members in enumerate(partition) for member in members}
    for corr in correspondences:
        if corr.verdict == "Homonym" and part_of[corr.c1] == part_of[corr.c2]:
            raise HomonymClusterCollision(
                f"homonym pair ({corr.c1}, {corr.c2}) ended up in part {part_of[corr.c1]}"
            )
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
                attributes=(*attributes, *(f"alias: {alias}" for alias in aliases)),
                associations=tuple(associations),
            )
        )
        clusters.append(Cluster(term=display, members=tuple(members), aliases=aliases))
    merged.validate()
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


def expand_correspondences(report: Report) -> list[Correspondence]:
    """Every pair of ``report`` as a Correspondence, in (c1, c2) order.

    A pair that ``pair_rows`` gives no cell is (0, syntactic, Distinct).
    """
    zero = Fraction(0)
    return [
        cells[k] if k in cells else Correspondence(c1, c2, zero, "Distinct", SYNTACTIC)
        for c1, _, partners, cells in pair_rows(report)
        for k, c2 in enumerate(partners)
    ]


def reference_evaluate(report: Report, truth: GroundTruth) -> dict:
    """Per-class precision/recall/F1 for Synonym and Homonym, plus macro F1,
    over every pair of ``report`` expanded into a ``Correspondence``."""
    predicted = {corr.pair: corr.verdict for corr in expand_correspondences(report)}
    if set(predicted) != set(truth.verdicts):
        missing = sorted(set(truth.verdicts) - set(predicted))[:3]
        extra = sorted(set(predicted) - set(truth.verdicts))[:3]
        raise ScenarioMismatch(
            f"report and truth cover different pairs (missing={missing}, extra={extra})"
        )
    outcomes = Counter((v, predicted[pair]) for pair, v in truth.verdicts.items())
    metrics: dict = {}
    f1_values = []
    for verdict in ("Synonym", "Homonym"):
        tp = outcomes[verdict, verdict]
        fp = sum(n for (v, p), n in outcomes.items() if p == verdict != v)
        fn = sum(n for (v, p), n in outcomes.items() if v == verdict != p)
        precision = tp / (tp + fp) if tp + fp else 1.0
        recall = tp / (tp + fn) if tp + fn else 1.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        metrics[verdict.lower()] = {"precision": precision, "recall": recall, "f1": f1}
        f1_values.append(f1)
    metrics["macro_f1"] = sum(f1_values) / len(f1_values)
    return metrics


def reference_truth_document(truth: GroundTruth) -> dict:
    """The ground-truth document as one dict: pairs by (c1, c2), planted
    relations in planting order."""
    return {
        "format_version": FORMAT_VERSION,
        "pairs": [
            {"c1": c1, "c2": c2, "verdict": verdict}
            for (c1, c2), verdict in sorted(truth.verdicts.items())
        ],
        "planted": [
            {"t1": p.t1, "t2": p.t2, "kind": p.kind, "in_od": p.in_od, "case": p.case}
            for p in truth.planted
        ],
    }


def reference_build_clusters(
    correspondences: Sequence[Correspondence], concept_ids: Iterable[str]
) -> list[tuple[str, ...]]:
    """The connected parts of the Synonym/Identical edges, each walked from
    its smallest id; raises as ``build_clusters`` does."""
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
    return groups


def _edge_chain(
    adjacency: dict[str, list[tuple[str, str]]], start: str, goal: str
) -> list[tuple[str, str, str]]:
    """Shortest path from start to goal, breadth first, each node's
    neighbours taken by id."""
    previous = {start: (start, start, "")}  # node -> the edge that reached it
    queue = [start]
    for node in queue:
        for neighbor, verdict in sorted(adjacency[node], key=lambda edge: edge[0]):
            if neighbor not in previous:
                previous[neighbor] = (node, neighbor, verdict)
                queue.append(neighbor)
    chain = []
    while goal != start:
        chain.append(previous[goal])
        goal = previous[goal][0]
    return chain[::-1]


def brute_force_closure(ids, edges):
    """Oracle: repeatedly merge clusters that share a merging edge."""
    clusters = [{cid} for cid in ids]
    changed = True
    while changed:
        changed = False
        for c1, c2 in edges:
            left = next(cl for cl in clusters if c1 in cl)
            right = next(cl for cl in clusters if c2 in cl)
            if left is not right:
                clusters.remove(right)
                left |= right
                changed = True
    return sorted(tuple(sorted(cl)) for cl in clusters)


def brute_force_syntactic(c1, c2, o1, o2) -> Fraction:
    """Independent oracle: explicit maximum over all child permutations."""
    if c1.is_atomic and c2.is_atomic:
        return Fraction(int(normalize_term(c1.term) == normalize_term(c2.term)))
    if c1.is_atomic or c2.is_atomic or len(c1.children) != len(c2.children):
        return Fraction(0)
    left = [o1.concepts[k] for k in c1.children]
    right = [o2.concepts[k] for k in c2.children]
    n = len(left)
    best = max(
        sum(
            (brute_force_syntactic(left[i], right[p[i]], o1, o2) for i in range(n)),
            Fraction(0),
        )
        for p in permutations(range(n))
    )
    return best / n


def reference_fixed_partners(source: Ontology, later: Ontology,
                             kids: ChildrenIndex) -> dict[str, set[str]]:
    """c1 id -> the ids of the concepts of ``later`` that share c1's key or
    score above 0 against c1 syntactically: the equal-key atomic pairs,
    lifted bottom-up to the equal-arity pairs of their parents."""
    partners: dict[str, set[str]] = {}
    lifted = []
    for c1 in source.concepts.values():
        for c2 in later.concepts_by_term(c1.key):
            partners.setdefault(c1.id, set()).add(c2.id)
            if c1.is_atomic and c2.is_atomic:
                lifted.append((c1.id, c2.id))
    seen = set(lifted)
    for x, y in lifted:  # grows as it is read: each pair lifts once
        for by_child in kids.parents.values():
            for p, q in product(by_child.get(x, ()), by_child.get(y, ())):
                if (p, q) not in seen:
                    seen.add((p, q))
                    lifted.append((p, q))
                    partners.setdefault(p, set()).add(q)
    return partners


def nonzero_columns(weights) -> list[list[int]]:
    """Each row's nonzero columns, ascending, of a square matrix: what
    ``perfect_assignment`` reads.  Raises ValueError when it is not square."""
    if any(len(row) != len(weights) for row in weights):
        raise ValueError("weight matrix must be square")
    return [[c for c, w in enumerate(row) if w] for row in weights]


def _children_sorted(concept: Concept, ontology: Ontology) -> list[Concept]:
    """``concept``'s children in ``ontology``, by (key, id)."""
    kids = [ontology.concepts[child] for child in concept.children]
    return sorted(kids, key=lambda c: (c.key, c.id))


def reference_syntactic(c1: Concept, c2: Concept, o1: Ontology, o2: Ontology) -> Fraction:
    """The syntactic score of c1 in o1 against c2 in o2, recursing into
    every child pair and matching the full child matrix."""
    if c1.is_atomic and c2.is_atomic:
        return Fraction(1) if c1.key == c2.key else Fraction(0)
    if c1.is_atomic or c2.is_atomic or len(c1.children) != len(c2.children):
        return Fraction(0)
    left = _children_sorted(c1, o1)
    right = _children_sorted(c2, o2)
    weights = [[reference_syntactic(a, b, o1, o2) for b in right] for a in left]
    total, _ = max_weight_assignment(weights)
    return total / len(left)


def reference_infer_via_children(c1: Concept, c2: Concept, sources: Sequence[Ontology],
                                 od: Ontology) -> Optional[tuple[Relation, ...]]:
    """Case 3 with one ``naive_first_relation`` scan per child cell and no early exit."""
    if c1.is_atomic or c2.is_atomic or len(c1.children) != len(c2.children):
        return None
    if c1.key == c2.key:
        return None
    o1, o2 = (next(o for o in sources if c.id in o.concepts) for c in (c1, c2))
    left, right = _children_sorted(c1, o1), _children_sorted(c2, o2)
    ontologies = [od, *sources]
    support = []
    weights = []
    for kid1 in left:
        row_rel = []
        row_w = []
        for kid2 in right:
            s1, s2 = kid1.key, kid2.key
            relation = None  # term equality needs no relation
            if s1 != s2:
                relation = naive_first_relation(ontologies, s1, s2, ("synonymy", "equivalence"))
            row_rel.append(relation)
            row_w.append(1 if s1 == s2 or relation is not None else 0)
        support.append(row_rel)
        weights.append(row_w)
    total, assignment = max_weight_assignment(weights)
    if total != len(left):
        return None
    return tuple(
        support[i][j] for i, j in enumerate(assignment) if support[i][j] is not None
    )


def reference_perfect_assignment(cols: Sequence[Sequence[int]]) -> Optional[tuple[int, ...]]:
    """``perfect_assignment`` with every row rerouted in both passes."""
    n = len(cols)
    rows: list[list[int]] = [[] for _ in range(n)]  # column -> rows with a 1 there
    for r, row in enumerate(cols):
        for c, after in zip(row, [*row[1:], n]):
            if not 0 <= c < after:
                raise ValueError(f"row {r}'s columns do not ascend within range({n})")
            rows[c].append(r)
    match = [-1] * n  # row -> column
    owner = [-1] * n  # column -> row
    if not all(cols) or not all(rows):
        return None

    def reroute(r: int, free: list[int]) -> bool:
        via = dict.fromkeys(free, -1)  # column -> where its owner moves to
        best = cols[r][-1]
        for x in free:
            if best in via:
                break
            for y in rows[x]:
                if y < r and match[y] not in via:
                    via[match[y]] = x
                    free.append(match[y])
        col = best if best in via else max((c for c in cols[r] if c in via), default=-1)
        if col == -1:
            return False
        while col != -1:
            match[r], owner[col], r, col = col, r, owner[col], via[col]
        return True

    for r in range(n):
        if not reroute(r, [c for c in range(n) if owner[c] == -1]):
            return None
    for r in reversed(range(n)):
        free = match[r]
        owner[free] = match[r] = -1
        reroute(r, [free])
    return tuple(match)


def naive_first_relation(ontologies, s1, s2, kinds):
    wanted = {s1, s2}
    for ontology in ontologies:
        for relation in ontology.relations:
            if relation.kind not in kinds:
                continue
            terms = {
                normalize_term(ontology.concepts[relation.a].term),
                normalize_term(ontology.concepts[relation.b].term),
            }
            if terms == wanted:
                return relation
    return None


def naive_concepts_by_term(ontology: Ontology, normalized: str) -> list[Concept]:
    found = [
        c for c in ontology.concepts.values() if normalize_term(c.term) == normalized
    ]
    return sorted(found, key=lambda c: c.id)


def naive_term_present(ontology: Ontology, normalized: str) -> bool:
    return any(normalize_term(c.term) == normalized for c in ontology.concepts.values())


_WORDS = (
    "aube", "brume", "cédrat", "dune", "érable", "fougère", "grès", "houle",
    "iris", "jonc", "karst", "lande", "mélèze", "nacre", "ocre", "pluie",
)


def random_component(rng: random.Random, component_id: str) -> BusinessComponent:
    count = rng.randint(1, 8)
    names = rng.sample(_WORDS, count)
    entities = []
    for index, name in enumerate(names):
        attributes = tuple(
            f"champ{rng.randint(0, 9)}" for _ in range(rng.randint(0, 2))
        )
        associations = tuple(
            (rng.choice(names), f"lien{rng.randint(0, 9)}")
            for _ in range(rng.randint(0, 2))
        )
        # children only among later names keeps compositions acyclic
        later = names[index + 1:]
        children = tuple(
            rng.sample(later, rng.randint(0, min(2, len(later))))
        )
        entities.append(
            Entity(
                name=name,
                attributes=attributes,
                associations=associations,
                components=children,
            )
        )
    relations = []
    taken = set()
    for _ in range(rng.randint(0, 2)):
        if count < 2:
            break
        a, b = rng.sample(names, 2)
        pair = frozenset((a, b))
        if pair in taken:
            continue
        taken.add(pair)
        relations.append((a, b, rng.choice(["synonymy", "equivalence"])))
    return BusinessComponent(
        id=component_id, name=f"aléatoire {component_id}",
        entities=tuple(entities), relations=tuple(relations),
    )
