"""Core data model: ontologies, business components, and alignment artifacts.

A business component is an ontology: its constructor reads ``Entity``
and ``ComponentRelation`` input values straight into concepts and
relations, and the pipeline reads nothing else.  All collection-valued
fields are kept in a canonical sorted order at construction time so that
structural equality, serialization determinism, and round-trips line up
without per-call sorting.  Every structural invariant is checked
eagerly, except where ``Concept._assembled`` takes fields its caller
checked.
"""

from __future__ import annotations

import heapq
from bisect import insort
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from operator import attrgetter
from types import MappingProxyType
from typing import Callable, Container, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from .errors import CyclicComposition, SchemaViolation
from .terms import name_sort_key, normalize_term

RELATION_KINDS = ("equivalence", "homonymy", "part_of", "synonymy")
SEMANTIC_KINDS = ("equivalence", "homonymy", "synonymy")
PROVENANCES = ("declared", "inferred_case1", "inferred_case2", "inferred_case3")
VERDICTS = ("Distinct", "Homonym", "Identical", "Synonym")
EVIDENCE_KINDS = ("enriched", "od_homonymy", "od_synonymy", "syntactic")
_SIBLING = {"synonymy": "homonymy", "homonymy": "synonymy"}  # kinds one pair cannot both carry


class _Value:
    """Base of the immutable model values, each a NamedTuple whose ``__new__``
    checks and canonicalises its fields; ``_make`` and ``_replace`` construct
    through it too.  Equal means same type and fields; the hash is the tuple's."""

    __slots__ = ()
    __hash__ = tuple.__hash__

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other) -> bool:
        return not self == other

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class _Record:
    """Base of the mutable model classes: ``==`` and ``repr`` read the fields
    named by ``_fields``, which leaves out a derived ``key``.  Unhashable."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        fields = attrgetter(*self._fields)
        return fields(self) == fields(other)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class Relation(_Value, NamedTuple("Relation", [
        ("a", str), ("b", str), ("kind", str), ("provenance", str)])):
    """A typed semantic edge between two concepts, ordered by its fields.

    Semantic kinds (synonymy, homonymy, equivalence) are symmetric and
    stored once per unordered pair: endpoints are swapped into sorted
    order on construction.  part_of is directed composite -> child.
    """

    __slots__ = ()

    def __new__(cls, a: str, b: str, kind: str, provenance: str = "declared"):
        if kind not in RELATION_KINDS:
            raise SchemaViolation(f"unknown relation kind {kind!r}")
        if provenance not in PROVENANCES:
            raise SchemaViolation(f"unknown relation provenance {provenance!r}")
        if a == b:
            raise SchemaViolation(f"relation may not join a concept to itself: {a!r}")
        if kind in SEMANTIC_KINDS and b < a:
            a, b = b, a
        return tuple.__new__(cls, (a, b, kind, provenance))

    @property
    def key(self) -> tuple[str, str, str]:
        """Identity of the edge: canonical endpoints plus kind."""
        return (self.a, self.b, self.kind)


class Association(NamedTuple):
    """An entity association carried through as opaque metadata."""

    target: str
    label: str


def _sorted_associations(associations: Iterable) -> tuple[Association, ...]:
    """The associations sorted, each pair that is not yet an ``Association``
    made one."""
    if not associations:
        return ()
    return tuple(sorted(a if type(a) is Association else Association(*a)
                        for a in associations))


class Concept(_Record):
    """A node in an ontology: a term plus optional composition children.

    A concept with no children is atomic.  ``attributes`` and
    ``associations`` carry component metadata through merging; they play
    no role in similarity.

    ``key`` is derived: the normalized ``term``, computed once on
    construction and read wherever two terms are compared.  ``term`` must
    therefore not be reassigned after construction; construct a new
    concept to change it.  Only nonempty collection fields are sorted and
    checked; an empty one becomes ().
    """

    _fields = ("id", "term", "children", "attributes", "associations")
    __slots__ = (*_fields, "key")

    def __init__(self, id: str, term: str, children: Iterable[str] = (),
                 attributes: Iterable[str] = (), associations: Iterable = ()):
        if not id:
            raise SchemaViolation("concept id must be nonempty")
        self.id = id
        self.term = term
        self.key = normalize_term(term)  # raises EmptyTerm on blank terms
        self.children = tuple(sorted(children)) if children else ()
        if self.children and len(set(self.children)) != len(self.children):
            raise SchemaViolation(f"concept {id!r} lists a duplicate child")
        if id in self.children:
            raise SchemaViolation(f"concept {id!r} lists itself as a child")
        self.attributes = tuple(sorted(attributes)) if attributes else ()
        self.associations = _sorted_associations(associations)

    @classmethod
    def _assembled(cls, key: str, id: str, term: str, children: tuple[str, ...],
                   attributes: tuple[str, ...],
                   associations: tuple[Association, ...]) -> "Concept":
        """A concept from fields its caller made canonical: ``key`` derived
        from ``term`` and the sorted tuples.  Nothing is sorted or checked."""
        concept = cls.__new__(cls)
        concept.id, concept.term, concept.key = id, term, key
        concept.children, concept.attributes, concept.associations = (
            children, attributes, associations)
        return concept

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

    part_of edges are not stored: ``ordered_relations`` derives them from
    concept children, and adding a part_of relation accepts only one that
    matches a composition link.  Only semantic relations are stored, so
    ``copy`` and ``__eq__`` carry those alone.  Duplicate semantic
    relations (same unordered endpoint pair and kind) and
    synonymy/homonymy coexistence on one concept pair are rejected.

    Two indexes, kept up to date by ``add_concept`` and ``add_relation``
    and shared copy-on-write by ``copy``, answer term questions without a scan:

    * normalized term -> sorted concept ids backs ``term_present`` and
      ``concepts_by_term``.  It is built at the first term query (or
      ``copy``), so an ontology that is only written never holds it;
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
        self._related: dict[str, dict[str, tuple[Relation, ...]]] = {}
        self._own_ids = self._own_related = None  # terms whose entry is this side's; None: all
        for concept in concepts:
            self.add_concept(concept)
        for relation in relations:
            self.add_relation(relation)

    @cached_property
    def _ids_by_term(self) -> dict[str, list[str]]:
        index: dict[str, list[str]] = {}
        for cid in sorted(self.concepts):
            index.setdefault(self.concepts[cid].key, []).append(cid)
        return index

    @property
    def relations(self) -> tuple[Relation, ...]:
        """All relations, including derived part_of edges, in sorted order."""
        return tuple(self.ordered_relations())

    def ordered_relations(self) -> Iterator[Relation]:
        """The relations of ``relations``, one at a time: the stored ones
        merged with the part_of edges, which are made in concept-id order."""
        part_of = (Relation(cid, child, "part_of")
                   for cid in sorted(self.concepts) for child in self.concepts[cid].children)
        return heapq.merge(self.semantic_relations(), part_of)

    def semantic_relations(self) -> list[Relation]:
        """The stored relations, every one semantic, in sorted order."""
        return sorted(self._relations.values())

    def add_concept(self, concept: Concept) -> None:
        if concept.id in self.concepts:
            raise SchemaViolation(f"duplicate concept id {concept.id!r} in ontology {self.id!r}")
        self.concepts[concept.id] = concept
        index = self.__dict__.get("_ids_by_term")
        if index is not None:
            insort(self._entry(index, self._own_ids, concept.key, list), concept.id)

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
        sibling = _SIBLING.get(relation.kind)
        if sibling and (relation.a, relation.b, sibling) in self._relations:
            raise SchemaViolation(
                f"concept pair ({relation.a!r}, {relation.b!r}) cannot carry both "
                "synonymy and homonymy"
            )
        self._relations[relation.key] = relation
        ta, tb = self.concepts[relation.a].key, self.concepts[relation.b].key
        joined = self._entry(self._related, self._own_related, ta, dict)
        shared = tuple(sorted((*joined.get(tb, ()), relation)))
        joined[tb] = self._entry(self._related, self._own_related, tb, dict)[ta] = shared

    @staticmethod
    def _entry(index: dict, owned: Optional[set[str]], term: str, kind: type):
        """``index[term]`` to write in place, copied once at its first write since a ``copy``."""
        if owned is not None and term not in owned:
            owned.add(term)
            index[term] = kind(index.get(term, ()))
        return index.setdefault(term, kind())

    def validate(self) -> None:
        """Check cross-concept invariants: child references and acyclicity."""
        self.check_children()
        cycle = self.composition_cycle()
        if cycle:
            raise CyclicComposition("composition cycle: " + " -> ".join(cycle))

    def check_children(self) -> None:
        """Raise SchemaViolation at the first child that is no concept here."""
        for concept in self.concepts.values():
            for child in concept.children:
                if child not in self.concepts:
                    raise SchemaViolation(
                        f"concept {concept.id!r} references unknown child {child!r}"
                    )

    def composition_cycle(self) -> Optional[list[str]]:
        """A cycle of composition links between known concepts, or None.  The
        walk starts at each composite in id order and steps into composites
        only: a childless concept is on no cycle, and skipping it changes no
        other step, so the first cycle found, and every message naming it, stay."""
        concepts = self.concepts
        return find_cycle(
            sorted(cid for cid, concept in concepts.items() if concept.children),
            lambda node: [c for c in concepts[node].children
                          if c in concepts and concepts[c].children],
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
        """Independent clone: the maps are copied, nothing is checked again, and each
        index entry is shared until a side writes it (``_entry``).  Concepts, relations and
        the index's relation tuples are shared, as no code writes them after construction."""
        clone = Ontology(self.id)
        clone.concepts = dict(self.concepts)
        clone._relations = dict(self._relations)
        clone._ids_by_term = dict(self._ids_by_term)
        clone._related = dict(self._related)
        for side in (self, clone):
            side._own_ids, side._own_related = set(), set()
        return clone

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (
            self.id == other.id
            and self.concepts == other.concepts
            and self._relations == other._relations
        )

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(id={self.id!r}, concepts={len(self.concepts)}, "
            f"relations={len(self.relations)})"
        )


class ComponentRelation(NamedTuple):
    """A semantic relation declared between two entities of a component."""

    a: str
    b: str
    kind: str


class Entity(_Record):
    """A named entity of a business component, the input value of one concept:
    ``key`` is its normalized ``name``.  As in ``Concept``, only nonempty
    collection fields are sorted and checked; ``components`` are sorted by key."""

    _fields = ("name", "attributes", "associations", "components")
    __slots__ = (*_fields, "key")  # key is derived: never reassign name

    def __init__(self, name: str, attributes: Iterable[str] = (),
                 associations: Iterable = (), components: Iterable[str] = ()):
        self.name = name
        self.key = normalize_term(name)
        self.attributes = tuple(sorted(attributes)) if attributes else ()
        self.associations = _sorted_associations(associations)
        if not components:
            self.components = ()
            return
        keyed = sorted(map(name_sort_key, components))
        self.components = tuple(child for _, child in keyed)
        seen = set()
        for key, child in keyed:
            if key == self.key:
                raise SchemaViolation(
                    f"entity {self.name!r} lists itself among its composition children"
                )
            if key in seen:
                raise SchemaViolation(
                    f"entity {self.name!r} lists duplicate composition child {child!r}"
                )
            seen.add(key)


class BusinessComponent(Ontology):
    """One source model: the ontology that ``align`` reads, plus a name.

    Each entity becomes the concept ``<component id>#<key>``, its term the
    entity's name, its children the ids of its composition children, its
    attributes and associations the entity's (targets spelled as given).
    Children are distinct, stored in key order: keys are unique, and
    child ids share the ``<component id>#`` prefix, so id order is key order.
    Each declared relation becomes a ``declared`` ``Relation`` between two
    such ids, so ``relations`` lists the part_of edges too.  ``add_concept``
    takes no other id; the constructor builds each id from its key and
    skips that check.  A term question builds the inherited term index;
    the pipeline asks a component none.

    Invariants checked on construction:

    * entity names are unique after term normalization;
    * every association, composition, and relation endpoint names an
      entity of this component;
    * the composition graph is acyclic;
    * declared relation kinds are semantic (synonymy/homonymy/equivalence).

    Each relation then goes through ``add_relation`` in input order, so a
    self relation, a duplicate, or synonymy beside homonymy on one pair is
    rejected by ``Relation`` and ``Ontology``'s own rules, in messages that
    name concept ids and start ``component '<id>': ``.

    References resolve through one transient map from entity name to key;
    only one spelled otherwise is normalized again.  The cycle walk visits
    composites only.  Equal means same type, name and ontology.
    """

    def __init__(self, id: str, name: str, entities: Iterable[Entity] = (),
                 relations: Iterable[ComponentRelation] = ()):
        if not id:
            raise SchemaViolation("component id must be nonempty")
        super().__init__(id)
        self.name = name
        entities = sorted(entities, key=attrgetter("key", "name"))
        key_of: dict[str, str] = {}  # entity name -> key
        previous = None
        for entity in entities:  # sorted, so a repeated key follows the first
            if entity.key == previous:
                raise SchemaViolation(
                    f"component {id!r}: duplicate entity name {entity.name!r}"
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

        for entity in entities:
            for association in entity.associations:
                if key(association.target) is None:
                    raise SchemaViolation(
                        f"component {id!r}: association of {entity.name!r} targets "
                        f"undeclared entity {association.target!r}"
                    )
            children = []  # their ids, in key order, which is id order
            for child in entity.components:
                child_key = key(child)
                if child_key is None:
                    raise SchemaViolation(
                        f"component {id!r}: composition child {child!r} of "
                        f"{entity.name!r} is not a declared entity"
                    )
                children.append(f"{id}#{child_key}")
            Ontology.add_concept(self, Concept._assembled(  # its id is built from its key
                entity.key, f"{id}#{entity.key}", entity.name, tuple(children),
                entity.attributes, entity.associations))
        for a, b, kind in relations:  # in input order: the first bad one is reported
            if kind not in SEMANTIC_KINDS:
                raise SchemaViolation(
                    f"component {id!r}: relation kind {kind!r} is not one of {SEMANTIC_KINDS}"
                )
            ends = key(a), key(b)
            for end, raw in zip(ends, (a, b)):
                if end is None:
                    raise SchemaViolation(
                        f"component {id!r}: relation endpoint {raw!r} is not a declared entity"
                    )
            try:
                self.add_relation(Relation(f"{id}#{ends[0]}", f"{id}#{ends[1]}", kind))
            except SchemaViolation as exc:
                raise SchemaViolation(f"component {id!r}: {exc}") from exc
        cycle = self.composition_cycle()
        if cycle:  # named by key: each id is "<id>#<key>"
            raise CyclicComposition(f"component {id!r}: composition cycle: "
                                    + " -> ".join(cid[len(id) + 1:] for cid in cycle))

    def add_concept(self, concept: Concept) -> None:
        if concept.id != f"{self.id}#{concept.key}":
            raise SchemaViolation(f"concept id {concept.id!r} is not <component id>#<key>")
        super().add_concept(concept)

    def __eq__(self, other) -> bool:
        return Ontology.__eq__(self, other) is True and self.name == other.name


class Evidence(_Value, NamedTuple("Evidence", [
        ("kind", str), ("relations_used", tuple[Relation, ...])])):
    """Why a similarity score came out the way it did."""

    __slots__ = ()

    def __new__(cls, kind: str, relations_used: tuple[Relation, ...] = ()):
        if kind not in EVIDENCE_KINDS:
            raise SchemaViolation(f"unknown evidence kind {kind!r}")
        if kind in ("od_synonymy", "od_homonymy") and not relations_used:
            raise SchemaViolation(
                f"evidence of kind {kind!r} must reference at least one relation"
            )
        return tuple.__new__(cls, (kind, relations_used))


# The evidence of every syntactic score; it carries no relations.
SYNTACTIC = Evidence(kind="syntactic")


class Correspondence(_Value, NamedTuple("Correspondence", [
        ("c1", str), ("c2", str), ("score", Fraction), ("verdict", str),
        ("evidence", Evidence)])):
    """The verdict on one cross-component concept pair."""

    __slots__ = ()

    def __new__(cls, c1: str, c2: str, score: Fraction, verdict: str, evidence: Evidence):
        if verdict not in VERDICTS:
            raise SchemaViolation(f"unknown verdict {verdict!r}")
        if not isinstance(score, (Fraction, int)):
            raise SchemaViolation(f"similarity score {score!r} is not exact")
        # integer comparisons (the denominator is positive)
        num, den = score.numerator, score.denominator
        if not 0 <= num <= den:
            raise SchemaViolation(f"similarity score {score} out of [0, 1]")
        if verdict == "Synonym" and (
            num != den or evidence.kind not in ("od_synonymy", "enriched")
        ):
            raise SchemaViolation("Synonym verdict requires score 1 and ontology evidence")
        if verdict == "Homonym" and (
            num != 0 or evidence.kind not in ("od_homonymy", "enriched")
        ):
            raise SchemaViolation("Homonym verdict requires score 0 and ontology evidence")
        if verdict == "Identical" and evidence.kind != "syntactic":
            raise SchemaViolation("Identical verdict requires syntactic evidence")
        return tuple.__new__(cls, (c1, c2, score, verdict, evidence))

    @property
    def pair(self) -> tuple[str, str]:
        return (self.c1, self.c2)


class EnrichmentRecord(_Value, NamedTuple("EnrichmentRecord", [
        ("injected", Relation), ("evidence", tuple[Relation, ...]),
        ("pair", tuple[str, str])])):
    """A relation injected into the support ontology, with its justification."""

    __slots__ = ()

    def __new__(cls, injected: Relation, evidence: tuple[Relation, ...], pair: tuple[str, str]):
        if injected.kind not in SEMANTIC_KINDS:
            raise SchemaViolation(
                f"only semantic relations can be injected, not {injected.kind!r}"
            )
        if not injected.provenance.startswith("inferred_case"):
            raise SchemaViolation(
                f"injected relation must carry inferred provenance, "
                f"got {injected.provenance!r}"
            )
        return tuple.__new__(cls, (injected, evidence, pair))

    @property
    def case(self) -> str:
        return self.injected.provenance


class Cluster(_Value, NamedTuple("Cluster", [
        ("term", str), ("members", tuple[str, ...]), ("aliases", tuple[str, ...])])):
    """A group of concepts realized as a single merged concept."""

    __slots__ = ()

    def __new__(cls, term: str, members: Iterable[str], aliases: Iterable[str] = ()):
        members = tuple(sorted(members))
        aliases = tuple(sorted(aliases, key=name_sort_key)) if aliases else ()
        if not members:
            raise SchemaViolation("cluster must have at least one member")
        return tuple.__new__(cls, (term, members, aliases))


class Report(_Record):
    """Everything the pipeline found: verdicts, injections, clusters, warnings.

    ``pair_space`` holds the sorted concept ids of each source, sources in
    id order.  When it is set, the report is sparse: a cross-source pair
    of that space (c1 from an earlier source, c2 from a later one) that
    ``correspondences`` leaves out is (0, syntactic, Distinct); when it is
    empty, as in a report read from a file, ``correspondences`` names every
    pair.  Either way no pair is listed twice; ``pair_rows`` reads both.
    A list field left out starts as a new empty list.
    """

    _fields = __slots__ = ("correspondences", "enrichments", "clusters", "warnings", "pair_space")

    def __init__(self, correspondences: Optional[list[Correspondence]] = None,
                 enrichments: Optional[list[EnrichmentRecord]] = None,
                 clusters: Optional[list[Cluster]] = None, warnings: Optional[list[str]] = None,
                 pair_space: tuple[tuple[str, ...], ...] = ()):
        self.correspondences = [] if correspondences is None else correspondences
        self.enrichments = [] if enrichments is None else enrichments
        self.clusters = [] if clusters is None else clusters
        self.warnings = [] if warnings is None else warnings
        self.pair_space = pair_space


def pair_space_of(sources: Iterable[Ontology]) -> tuple[tuple[str, ...], ...]:
    """The ``Report.pair_space`` of ``sources``: sorted concept ids, sources by id."""
    ordered = sorted(sources, key=lambda o: o.id)
    return tuple(tuple(sorted(source.concepts)) for source in ordered)


_NO_CELLS: Mapping[int, Correspondence] = MappingProxyType({})  # every unlisted row's cells


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

    The listed pairs are indexed once.  A sparse report's rows come from
    merging its sides' sorted ids; a side's partners are indexed by
    position only once a row of that side lists a pair, and an id -> side
    map is built only to word a stray-pair error.  An unlisted row's
    ``cells`` is one shared, read-only empty mapping.

    Raises SchemaViolation for a pair listed twice and, in a sparse
    report, for a pair outside the pair space or one that points from a
    later source to an earlier one.  Nothing listed is dropped.
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

    partners: list[tuple[str, ...]] = [()] * len(space)
    for side in range(len(space) - 2, -1, -1):
        partners[side] = tuple(sorted(partners[side + 1] + space[side + 1]))
    position: list[Optional[dict[str, int]]] = [None] * len(space)
    rows = (zip(sorted(ids), repeat(side)) for side, ids in enumerate(space[:-1]))
    for c1, side in heapq.merge(*rows):
        row = listed.pop(c1, None)
        if row is None:
            yield c1, side, partners[side], _NO_CELLS
            continue
        index = position[side]
        if index is None:
            index = position[side] = {cid: k for k, cid in enumerate(partners[side])}
        cells: dict[int, Correspondence] = {}
        for c2, corr in row.items():
            k = index.get(c2)
            if k is None:
                raise _stray_pair(corr, space)
            cells[k] = corr
        yield c1, side, partners[side], cells
    for row in listed.values():  # rows whose c1 is in no earlier source
        raise _stray_pair(next(iter(row.values())), space)


def _stray_pair(corr: Correspondence, space: tuple[tuple[str, ...], ...]) -> SchemaViolation:
    side_of = {cid: side for side, ids in enumerate(space) for cid in ids}
    sides = side_of.get(corr.c1), side_of.get(corr.c2)
    if None in sides:
        return SchemaViolation(f"pair {corr.pair} lies outside the report's pair space")
    return SchemaViolation(
        f"pair {corr.pair} does not point from an earlier source to a later one"
    )


def as_fraction(value) -> Fraction:
    """Coerce thresholds/scores to exact Fractions.

    Floats go through their decimal string form so that a CLI value such
    as 0.75 means exactly 3/4.
    """
    if isinstance(value, float):
        return Fraction(str(value))
    return Fraction(value)


def first_free(base: str, taken: Container[str]) -> str:
    """``base``, or the first of ``base~2``, ``base~3``, ... not in ``taken``."""
    candidate, suffix = base, 2
    while candidate in taken:
        candidate, suffix = f"{base}~{suffix}", suffix + 1
    return candidate
