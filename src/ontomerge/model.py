"""Core data model: business components, ontologies, and alignment artifacts.

All collection-valued fields are kept in a canonical sorted order at
construction time so that structural equality, serialization determinism,
and round-trips line up without per-call sorting.  Every structural
invariant is checked eagerly; a value that constructs successfully is
valid.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from .errors import SchemaViolation
from .terms import name_sort_key, normalize_term

RELATION_KINDS = ("equivalence", "homonymy", "part_of", "synonymy")
SEMANTIC_KINDS = ("equivalence", "homonymy", "synonymy")
PROVENANCES = ("declared", "inferred_case1", "inferred_case2", "inferred_case3")
VERDICTS = ("Distinct", "Homonym", "Identical", "Synonym")
EVIDENCE_KINDS = ("enriched", "od_homonymy", "od_synonymy", "syntactic")


@dataclass(frozen=True, order=True)
class Relation:
    """A typed semantic edge between two concepts.

    Semantic kinds (synonymy, homonymy, equivalence) are symmetric and
    stored once per unordered pair: endpoints are swapped into sorted
    order on construction.  part_of is directed composite -> child.
    """

    a: str
    b: str
    kind: str
    provenance: str = "declared"

    def __post_init__(self):
        if self.kind not in RELATION_KINDS:
            raise SchemaViolation(f"unknown relation kind {self.kind!r}")
        if self.provenance not in PROVENANCES:
            raise SchemaViolation(f"unknown relation provenance {self.provenance!r}")
        if self.a == self.b:
            raise SchemaViolation(f"relation may not join a concept to itself: {self.a!r}")
        if self.kind in SEMANTIC_KINDS and self.b < self.a:
            low, high = self.b, self.a
            object.__setattr__(self, "a", low)
            object.__setattr__(self, "b", high)

    @property
    def key(self) -> tuple[str, str, str]:
        """Identity of the edge: canonical endpoints plus kind."""
        return (self.a, self.b, self.kind)

    def to_dict(self) -> dict:
        return {"a": self.a, "b": self.b, "kind": self.kind, "provenance": self.provenance}


class Association(NamedTuple):
    """An entity association carried through as opaque metadata."""

    target: str
    label: str


def _sorted_associations(associations: Iterable) -> tuple[Association, ...]:
    return tuple(sorted(Association(*a) for a in associations)) if associations else ()


@dataclass
class Concept:
    """A node in an ontology: a term plus optional composition children.

    A concept with no children is atomic.  ``attributes``, ``associations``
    and ``aliases`` carry component metadata through transformation and
    merging; they play no role in similarity.

    ``key`` is derived: the normalized ``term``, computed once on
    construction and read wherever two terms are compared.  ``term`` must
    therefore not be reassigned after construction; build a new concept
    (``dataclasses.replace``) to change it.  Only nonempty collection
    fields are sorted and checked; an empty one becomes ().
    """

    id: str
    term: str
    children: tuple[str, ...] = ()
    attributes: tuple[str, ...] = ()
    associations: tuple[Association, ...] = ()
    aliases: tuple[str, ...] = ()
    key: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.id:
            raise SchemaViolation("concept id must be nonempty")
        self.key = normalize_term(self.term)  # raises EmptyTerm on blank terms
        self.children = tuple(sorted(self.children)) if self.children else ()
        if self.children and len(set(self.children)) != len(self.children):
            raise SchemaViolation(f"concept {self.id!r} lists a duplicate child")
        if self.id in self.children:
            raise SchemaViolation(f"concept {self.id!r} lists itself as a child")
        self.attributes = tuple(sorted(self.attributes)) if self.attributes else ()
        self.associations = _sorted_associations(self.associations)
        self.aliases = tuple(sorted(self.aliases, key=name_sort_key)) if self.aliases else ()

    @property
    def is_atomic(self) -> bool:
        return not self.children


def find_cycle(
    roots: Iterable[str], children: Callable[[str], Iterable[str]]
) -> Optional[list[str]]:
    """First cycle met by a depth-first walk from each root in turn, or None.

    ``children`` lists a node's successors in visiting order.  The cycle
    is returned as the path that starts and ends at the repeated node.
    Iterative, so composition depth is not bounded by the recursion limit.
    """
    done: set[str] = set()
    for root in roots:
        if root in done:
            continue
        path = [root]
        on_path = {root: 0}  # node -> its index in path
        pending = [iter(children(root))]
        while pending:
            child = next(pending[-1], None)
            if child is None:
                pending.pop()
                node = path.pop()
                del on_path[node]
                done.add(node)
            elif child in on_path:
                return path[on_path[child]:] + [child]
            elif child not in done:
                on_path[child] = len(path)
                path.append(child)
                pending.append(iter(children(child)))
    return None


class Ontology:
    """A concept graph with typed semantic relations.

    part_of edges are not stored: ``relations`` derives them from concept
    children, and adding a part_of relation accepts only one that matches
    a composition link.  Only semantic relations are stored, so
    ``copy`` and ``__eq__`` carry those alone.  Duplicate semantic
    relations (same unordered endpoint pair and kind) and
    synonymy/homonymy coexistence on one concept pair are rejected.

    Two indexes, filled only by ``add_concept`` and ``add_relation``
    and rebuilt by ``copy``, answer term questions without a scan:

    * normalized term -> sorted concept ids backs ``term_present`` and
      ``concepts_by_term``;
    * normalized term -> related normalized term -> the semantic
      relations joining concepts with those terms, sorted, backs
      ``related_terms``.  Both directions of a term pair share one
      tuple, and a relation between two concepts of one term is filed
      under that term alone.
    """

    def __init__(self, id: str, concepts: Iterable[Concept] = (), relations: Iterable[Relation] = ()):
        if not id:
            raise SchemaViolation("ontology id must be nonempty")
        self.id = id
        self.concepts: dict[str, Concept] = {}
        self._relations: dict[tuple[str, str, str], Relation] = {}
        self._ids_by_term: dict[str, list[str]] = {}
        self._related: dict[str, dict[str, tuple[Relation, ...]]] = {}
        for concept in concepts:
            self.add_concept(concept)
        for relation in relations:
            self.add_relation(relation)

    @property
    def relations(self) -> tuple[Relation, ...]:
        """All relations, including derived part_of edges, in sorted order."""
        part_of = (Relation(concept.id, child, "part_of")
                   for concept in self.concepts.values() for child in concept.children)
        return tuple(sorted((*self._relations.values(), *part_of)))

    def add_concept(self, concept: Concept) -> None:
        if concept.id in self.concepts:
            raise SchemaViolation(f"duplicate concept id {concept.id!r} in ontology {self.id!r}")
        self.concepts[concept.id] = concept
        insort(self._ids_by_term.setdefault(concept.key, []), concept.id)

    def add_relation(self, relation: Relation) -> None:
        if relation.kind == "part_of":
            # part_of is owned by concept children; accept only matching edges.
            if relation.a in self.concepts and relation.b in self.concepts[relation.a].children:
                return
            raise SchemaViolation(
                f"part_of relation {relation.a!r} -> {relation.b!r} does not match "
                "any composition link"
            )
        for endpoint in (relation.a, relation.b):
            if endpoint not in self.concepts:
                raise SchemaViolation(
                    f"relation endpoint {endpoint!r} is not a concept of ontology {self.id!r}"
                )
        if relation.key in self._relations:
            raise SchemaViolation(
                f"duplicate {relation.kind} relation between {relation.a!r} and {relation.b!r}"
            )
        sibling = {"synonymy": "homonymy", "homonymy": "synonymy"}.get(relation.kind)
        if sibling and (relation.a, relation.b, sibling) in self._relations:
            raise SchemaViolation(
                f"concept pair ({relation.a!r}, {relation.b!r}) cannot carry both "
                "synonymy and homonymy"
            )
        self._relations[relation.key] = relation
        ta, tb = self.concepts[relation.a].key, self.concepts[relation.b].key
        joined = self._related.setdefault(ta, {})
        shared = tuple(sorted((*joined.get(tb, ()), relation)))
        joined[tb] = self._related.setdefault(tb, {})[ta] = shared

    def validate(self) -> None:
        """Check cross-concept invariants: child references and acyclicity."""
        self.check_children()
        cycle = self.composition_cycle()
        if cycle:
            raise SchemaViolation("composition cycle: " + " -> ".join(cycle))

    def check_children(self) -> None:
        """Raise SchemaViolation at the first child that is no concept here."""
        for concept in self.concepts.values():
            for child in concept.children:
                if child not in self.concepts:
                    raise SchemaViolation(
                        f"concept {concept.id!r} references unknown child {child!r}"
                    )

    def composition_cycle(self) -> Optional[list[str]]:
        """A cycle of composition links between known concepts, or None; walked
        from composites only, in id order, as a childless concept is on no cycle."""
        return find_cycle(
            sorted(cid for cid, concept in self.concepts.items() if concept.children),
            lambda node: [c for c in self.concepts[node].children if c in self.concepts],
        )

    def concepts_by_term(self, normalized: str) -> list[Concept]:
        """All concepts whose normalized term equals ``normalized``, by id."""
        return [self.concepts[cid] for cid in self._ids_by_term.get(normalized, ())]

    def term_present(self, normalized: str) -> bool:
        return normalized in self._ids_by_term

    def related_terms(self, normalized: str) -> Mapping[str, tuple[Relation, ...]]:
        """Related normalized term -> its relations to ``normalized``; do not modify.

        Relations are semantic (never part_of) and sorted; ``normalized``
        relates to itself when two of its concepts are related.
        """
        return self._related.get(normalized) or {}

    def copy(self) -> "Ontology":
        """Independent clone with rebuilt indexes; concept values are shared,
        as no code writes a ``Concept`` after construction."""
        return Ontology(self.id, self.concepts.values(), self._relations.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Ontology):
            return NotImplemented
        return (
            self.id == other.id
            and self.concepts == other.concepts
            and self._relations == other._relations
        )

    def __repr__(self) -> str:
        return (
            f"Ontology(id={self.id!r}, concepts={len(self.concepts)}, "
            f"relations={len(self.relations)})"
        )


class ComponentRelation(NamedTuple):
    """A semantic relation declared between two entities of a component."""

    a: str
    b: str
    kind: str


@dataclass(slots=True)
class Entity:
    """A named entity of a business component; ``key`` is its normalized ``name``.
    As in ``Concept``, only nonempty collection fields are sorted and checked."""

    name: str
    attributes: tuple[str, ...] = ()
    associations: tuple[Association, ...] = ()
    components: tuple[str, ...] = ()
    key: str = field(init=False, repr=False, compare=False)  # derived: never reassign name

    def __post_init__(self):
        self.key = own_key = normalize_term(self.name)
        self.attributes = tuple(sorted(self.attributes)) if self.attributes else ()
        self.associations = _sorted_associations(self.associations)
        if not self.components:
            self.components = ()
            return
        keyed = sorted(map(name_sort_key, self.components))
        self.components = tuple(child for _, child in keyed)
        seen = set()
        for key, child in keyed:
            if key == own_key:
                raise SchemaViolation(
                    f"entity {self.name!r} lists itself among its composition children"
                )
            if key in seen:
                raise SchemaViolation(
                    f"entity {self.name!r} lists duplicate composition child {child!r}"
                )
            seen.add(key)


@dataclass
class BusinessComponent:
    """One source model: a set of entities plus declared semantic relations.

    Invariants checked on construction:

    * entity names are unique after term normalization;
    * every association, composition, and relation endpoint names an
      entity of this component;
    * the composition graph is acyclic;
    * declared relation kinds are semantic (synonymy/homonymy/equivalence)
      and no entity pair carries both synonymy and homonymy.

    References resolve through a transient map from entity name to key; only
    one spelled otherwise is normalized again.  The cycle walk starts at composites.
    """

    id: str
    name: str
    entities: tuple[Entity, ...] = ()
    relations: tuple[ComponentRelation, ...] = ()

    def __post_init__(self):
        if not self.id:
            raise SchemaViolation("component id must be nonempty")
        self.entities = tuple(sorted(self.entities, key=lambda e: (e.key, e.name)))
        key_of: dict[str, str] = {}  # entity name -> key
        previous = None
        for entity in self.entities:  # sorted, so a repeated key follows the first
            if entity.key == previous:
                raise SchemaViolation(
                    f"component {self.id!r}: duplicate entity name {entity.name!r}"
                )
            key_of[entity.name] = previous = entity.key
        keys: set[str] = set()  # filled at the first reference spelled otherwise

        def key(reference: str) -> Optional[str]:
            """The key of the entity that ``reference`` names, or None."""
            if reference in key_of:
                return key_of[reference]
            if not keys:
                keys.update(key_of.values())
            found = normalize_term(reference)
            return found if found in keys else None

        child_keys: dict[str, list[str]] = {}  # composite key -> child keys
        for entity in self.entities:
            for association in entity.associations:
                if key(association.target) is None:
                    raise SchemaViolation(
                        f"component {self.id!r}: association of {entity.name!r} targets "
                        f"undeclared entity {association.target!r}"
                    )
            for child in entity.components:
                child_key = key(child)
                if child_key is None:
                    raise SchemaViolation(
                        f"component {self.id!r}: composition child {child!r} of "
                        f"{entity.name!r} is not a declared entity"
                    )
                child_keys.setdefault(entity.key, []).append(child_key)
        self.relations = tuple(
            sorted(self._canonical_relation(rel, key) for rel in self.relations)
        )
        seen_pairs: dict[tuple[str, str], str] = {}
        for rel in self.relations:
            pair = (key(rel.a), key(rel.b))
            prev = seen_pairs.get(pair)
            if prev == rel.kind:
                raise SchemaViolation(
                    f"component {self.id!r}: duplicate {rel.kind} relation "
                    f"between {rel.a!r} and {rel.b!r}"
                )
            if {prev, rel.kind} == {"synonymy", "homonymy"}:
                raise SchemaViolation(
                    f"component {self.id!r}: entity pair ({rel.a!r}, {rel.b!r}) "
                    "cannot carry both synonymy and homonymy"
                )
            seen_pairs[pair] = rel.kind
        cycle = None
        if child_keys:  # composites only: a childless entity is on no cycle
            cycle = find_cycle(sorted(child_keys), lambda k: child_keys.get(k, ()))
        if cycle:
            raise SchemaViolation(
                f"component {self.id!r}: composition cycle: " + " -> ".join(cycle)
            )

    def _canonical_relation(
        self, rel: ComponentRelation, key: Callable[[str], Optional[str]]
    ) -> ComponentRelation:
        rel = ComponentRelation(*rel)
        if rel.kind not in SEMANTIC_KINDS:
            raise SchemaViolation(
                f"component {self.id!r}: relation kind {rel.kind!r} is not one of "
                f"{SEMANTIC_KINDS}"
            )
        na, nb = key(rel.a), key(rel.b)
        for endpoint, raw in ((na, rel.a), (nb, rel.b)):
            if endpoint is None:
                raise SchemaViolation(
                    f"component {self.id!r}: relation endpoint {raw!r} is not a "
                    "declared entity"
                )
        if na == nb:
            raise SchemaViolation(
                f"component {self.id!r}: relation may not join entity {rel.a!r} to itself"
            )
        if nb < na:
            rel = ComponentRelation(rel.b, rel.a, rel.kind)
        return rel


@dataclass(frozen=True)
class Evidence:
    """Why a similarity score came out the way it did."""

    kind: str
    relations_used: tuple[Relation, ...] = ()

    def __post_init__(self):
        if self.kind not in EVIDENCE_KINDS:
            raise SchemaViolation(f"unknown evidence kind {self.kind!r}")
        if self.kind in ("od_synonymy", "od_homonymy") and not self.relations_used:
            raise SchemaViolation(
                f"evidence of kind {self.kind!r} must reference at least one relation"
            )


# The evidence of every syntactic score; it carries no relations.
SYNTACTIC = Evidence(kind="syntactic")


@dataclass(frozen=True)
class Correspondence:
    """The verdict on one cross-component concept pair."""

    c1: str
    c2: str
    score: Fraction
    verdict: str
    evidence: Evidence

    def __post_init__(self):
        if self.verdict not in VERDICTS:
            raise SchemaViolation(f"unknown verdict {self.verdict!r}")
        if not isinstance(self.score, (Fraction, int)):
            raise SchemaViolation(f"similarity score {self.score!r} is not exact")
        # integer comparisons (the denominator is positive)
        num, den = self.score.numerator, self.score.denominator
        if not 0 <= num <= den:
            raise SchemaViolation(f"similarity score {self.score} out of [0, 1]")
        if self.verdict == "Synonym" and (
            num != den or self.evidence.kind not in ("od_synonymy", "enriched")
        ):
            raise SchemaViolation("Synonym verdict requires score 1 and ontology evidence")
        if self.verdict == "Homonym" and (
            num != 0 or self.evidence.kind not in ("od_homonymy", "enriched")
        ):
            raise SchemaViolation("Homonym verdict requires score 0 and ontology evidence")
        if self.verdict == "Identical" and self.evidence.kind != "syntactic":
            raise SchemaViolation("Identical verdict requires syntactic evidence")

    @property
    def pair(self) -> tuple[str, str]:
        return (self.c1, self.c2)


@dataclass(frozen=True)
class EnrichmentRecord:
    """A relation injected into the support ontology, with its justification."""

    injected: Relation
    evidence: tuple[Relation, ...]
    pair: tuple[str, str]

    def __post_init__(self):
        if self.injected.kind not in SEMANTIC_KINDS:
            raise SchemaViolation(
                f"only semantic relations can be injected, not {self.injected.kind!r}"
            )
        if not self.injected.provenance.startswith("inferred_case"):
            raise SchemaViolation(
                f"injected relation must carry inferred provenance, "
                f"got {self.injected.provenance!r}"
            )

    @property
    def case(self) -> str:
        return self.injected.provenance


@dataclass(frozen=True)
class Cluster:
    """A group of concepts realized as a single merged concept."""

    term: str
    members: tuple[str, ...]
    aliases: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(sorted(self.members)))
        aliases = tuple(sorted(self.aliases, key=name_sort_key)) if self.aliases else ()
        object.__setattr__(self, "aliases", aliases)
        if not self.members:
            raise SchemaViolation("cluster must have at least one member")


@dataclass
class Report:
    """Everything the pipeline found: verdicts, injections, clusters, warnings.

    ``pair_space`` holds the sorted concept ids of each source, sources in
    id order.  When it is set, the report is sparse: a cross-source pair
    of that space (c1 from an earlier source, c2 from a later one) that
    ``correspondences`` leaves out is (0, syntactic, Distinct); when it is
    empty, as in a report read from a file, ``correspondences`` names every
    pair.  Either way no pair is listed twice; ``pair_rows`` reads both.
    """

    correspondences: list[Correspondence] = field(default_factory=list)
    enrichments: list[EnrichmentRecord] = field(default_factory=list)
    clusters: list[Cluster] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    pair_space: tuple[tuple[str, ...], ...] = ()


def pair_space_of(sources: Iterable[Ontology]) -> tuple[tuple[str, ...], ...]:
    """The ``Report.pair_space`` of ``sources``: sorted concept ids, sources by id."""
    ordered = sorted(sources, key=lambda o: o.id)
    return tuple(tuple(sorted(source.concepts)) for source in ordered)


def pair_rows(
    report: Report,
) -> Iterator[tuple[str, Optional[int], Sequence[str], Mapping[int, Correspondence]]]:
    """Every pair of ``report``, one row per c1, in global (c1, c2) string order.

    A row is (c1, side, partners, cells): ``partners`` are the row's c2 ids
    in string order and ``cells`` maps a position k in ``partners`` to the
    listed correspondence of (c1, partners[k]); a sparse report leaves a
    position out for an unlisted (0, syntactic, Distinct) pair.  In a
    sparse report ``side`` is the index of c1's source in ``pair_space``
    and every row of one side shares one ``partners`` tuple: all concept
    ids of the later sources, merged (empty when those sources are).
    Concept ids order rows across sources ("CM 2#x" < "CM#x").  In an
    explicit report ``side`` is None and ``cells`` holds every position.

    The listed pairs are indexed once.  Raises SchemaViolation for a pair
    listed twice and, in a sparse report, for a pair outside the pair
    space or one that points from a later source to an earlier one.
    Nothing listed is dropped.
    """
    listed: dict[str, dict[str, Correspondence]] = {}
    for corr in report.correspondences:
        row = listed.setdefault(corr.c1, {})
        if corr.c2 in row:
            raise SchemaViolation(f"pair ({corr.c1}, {corr.c2}) is listed twice")
        row[corr.c2] = corr
    space = report.pair_space
    if not space:
        for c1, row in sorted(listed.items()):
            partners = sorted(row)
            yield c1, None, partners, {k: row[c2] for k, c2 in enumerate(partners)}
        return

    side_of = {cid: side for side, ids in enumerate(space) for cid in ids}
    partners: list[tuple[str, ...]] = [()] * len(space)
    for side in range(len(space) - 2, -1, -1):
        partners[side] = tuple(sorted(partners[side + 1] + space[side + 1]))
    position = [{cid: k for k, cid in enumerate(ids)} for ids in partners]
    for c1 in sorted(cid for ids in space[:-1] for cid in ids):
        side = side_of[c1]
        cells: dict[int, Correspondence] = {}
        for c2, corr in listed.pop(c1, {}).items():
            k = position[side].get(c2)
            if k is None:
                raise _stray_pair(corr, side_of)
            cells[k] = corr
        yield c1, side, partners[side], cells
    for row in listed.values():  # rows whose c1 is in no earlier source
        raise _stray_pair(next(iter(row.values())), side_of)


def _stray_pair(corr: Correspondence, side_of: dict[str, int]) -> SchemaViolation:
    sides = side_of.get(corr.c1), side_of.get(corr.c2)
    if None in sides:
        return SchemaViolation(f"pair {corr.pair} lies outside the report's pair space")
    return SchemaViolation(
        f"pair {corr.pair} does not point from an earlier source to a later one"
    )


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


def as_fraction(value) -> Fraction:
    """Coerce thresholds/scores to exact Fractions.

    Floats go through their decimal string form so that a CLI value such
    as 0.75 means exactly 3/4.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(str(value))
    return Fraction(value)
