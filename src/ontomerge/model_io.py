"""File formats: component, ontology, and report documents plus DOT export.

All three formats are JSON with an explicit ``"format_version": 1`` field.
Serializers emit keys and list elements in sorted order, so equal values
produce byte-identical output; ``parse(serialize(v))`` is the identity.
Every invariant violation is detected at parse time and reported as a
SchemaViolation naming the offending path or field; broken JSON or
encodings raise MalformedFile.  The readers check each entry in one pass
with exact type tests (JSON gives exact types, and a bool is no int) and
format an entry's context, such as ``"<path>: entities[3]"``, only when
an error names it; an error a value's constructor raises gets that
context too, and keeps its class.

Component document::

    {"format_version": 1, "id": "CM1", "name": "...",
     "entities": [{"name": "...", "attributes": ["..."],
                   "associations": [{"target": "...", "label": "..."}],
                   "components": ["..."]}],
     "relations": [{"a": "...", "b": "...", "kind": "synonymy"}]}

``relations`` declares optional semantic relations (synonymy / homonymy /
equivalence) between entities; ``associations`` and ``components`` name
entities of the same document.  The writer spells a composition child or
relation endpoint as the entity it names; an association target as given.

Ontology document::

    {"format_version": 1, "id": "Od",
     "concepts": [{"id": "...", "term": "...", "children": ["..."]}],
     "relations": [{"a": "...", "b": "...", "kind": "...",
                    "provenance": "declared"}]}

Relation kinds are synonymy, homonymy, equivalence, part_of; provenance
defaults to "declared".  part_of edges may be omitted (they are derived
from concept children); a part_of edge that contradicts the children is
rejected.  Concepts accept optional ``attributes`` and ``associations``
keys, which carry component metadata through round trips; other keys are ignored.

Report documents mirror the Report type; scores are exact fraction
strings such as "1", "0" or "1/2".

One writer lays out every JSON object and list: ``_template`` gives the
``%`` template of an object's sorted keys, ``_items`` joins a list's
rendered items.  A record fills its template straight from the model
value (its relations or associations through ``_rows``), and ``_render``
a plain value's: document scalars, warnings, ``eval``'s metrics.
``component_chunks``, ``ontology_chunks``, ``report_chunks`` and
``evalgen.truth_chunks`` stream a document one record or one row of
report correspondences at a time; a correspondence fills its record's
template, cut at its two ids.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring
from operator import itemgetter
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

from .errors import MalformedFile, SchemaViolation
from .model import (
    SYNTACTIC,
    Association,
    BusinessComponent,
    Cluster,
    ComponentRelation,
    Concept,
    Correspondence,
    EnrichmentRecord,
    Entity,
    Evidence,
    Ontology,
    Relation,
    Report,
    pair_rows,
)

FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# low-level helpers


def _load_document(path) -> Any:
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise MalformedFile(f"{path}: cannot read file: {exc}") from exc
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedFile(f"{path}: not valid UTF-8: {exc}") from exc
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedFile(f"{path}: invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise MalformedFile(f"{path}: invalid JSON: nested too deeply") from exc
    # only a \ud800-\udfff escape can put a surrogate in a decoded string; the
    # decoder joins an escaped pair into one character, so what fails to
    # encode is an unpaired one.  The C encoder takes any depth the decoder did.
    if "\\ud" in text or "\\uD" in text:
        try:
            json.dumps(document, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError as exc:
            raise MalformedFile(
                f"{path}: invalid JSON: unpaired surrogate escape in a string") from exc
    return document


def _context(where) -> str:
    """An error context: a string, or (context, list name, index) for an item
    of a list (index None: for the field itself), which is formatted only
    when an error names it."""
    if type(where) is str:
        return where
    context, name, index = where
    return f"{_context(context)}{name}" + ("" if index is None else f"[{index}]")


def _in_context(exc: SchemaViolation, where) -> SchemaViolation:
    """``exc`` again, of its own class, its message led by the context ``where``."""
    return type(exc)(f"{_context(where)}: {exc}")


def _expect(condition: bool, where, message: str) -> None:
    if not condition:
        raise SchemaViolation(f"{_context(where)}: {message}")


_REQUIRED = object()


def _field(obj: dict, key: str, kind: type, where, default=_REQUIRED):
    """``obj[key]``, of exactly type ``kind`` (so no bool passes as an int),
    or ``default`` when ``key`` is absent and a default is given."""
    value = obj.get(key, default)
    if type(value) is kind or (value is default and default is not _REQUIRED):
        return value
    _expect(key in obj, where, f"missing field {key!r}")
    raise SchemaViolation(f"{_context(where)}: field {key!r} must be {kind.__name__}")


def _check_version(doc: Any, context: str) -> None:
    _expect(isinstance(doc, dict), context, "document root must be an object")
    version = _field(doc, "format_version", int, context)
    _expect(
        version == FORMAT_VERSION,
        context,
        f"unsupported format_version {version} (expected {FORMAT_VERSION})",
    )


def _strings(obj: dict, key: str, where) -> Sequence[str]:
    """The optional list of strings ``obj[key]``; () when absent."""
    values = obj.get(key, ())
    if type(values) is not list:
        return _field(obj, key, list, where, ())  # () when absent, else raises
    for index, value in enumerate(values):
        if type(value) is not str:
            raise SchemaViolation(f"{_context(where)}: {key}[{index}] must be a string")
    return values


def _associations(obj: dict, where) -> list[Association]:
    """The optional ``associations`` list of an entity or concept object."""
    associations = []
    for index, assoc in enumerate(_field(obj, "associations", list, where, ())):
        at = (where, ".associations", index)
        _expect(type(assoc) is dict, at, "association must be an object")
        associations.append(
            Association(_field(assoc, "target", str, at), _field(assoc, "label", str, at))
        )
    return associations


def _relation(raw: Any, where) -> Relation:
    """One relation object of an ontology or report document."""
    _expect(type(raw) is dict, where, "relation must be an object")
    a, b, kind = [_field(raw, key, str, where) for key in ("a", "b", "kind")]
    provenance = _field(raw, "provenance", str, where, "declared")
    try:
        return Relation(a, b, kind, provenance)
    except SchemaViolation as exc:
        raise _in_context(exc, where) from exc


def _render(value: Any, indent: str) -> str:
    """``json.dumps`` of ``value`` with ``ensure_ascii=False``, two-space
    indentation and sorted keys, ``indent`` put before every line but the
    first: a string is encoded in place, a dict fills the ``_template`` of
    its sorted keys, a list goes through ``_items`` and any other scalar
    through ``json.dumps``.  Written by hand because ``json.dumps(indent=...)``
    runs the pure-Python encoder, whose closures leave reference cycles
    (33 objects a call) for the cyclic collector."""
    if isinstance(value, str):
        return encode_basestring(value)
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        keys = sorted(value)
        return _template(keys, indent) % tuple(_render(value[k], inner) for k in keys)
    if isinstance(value, list):
        return _items([_render(v, inner) for v in value], indent)
    return json.dumps(value)


def _template(keys: Iterable[str], indent: str) -> str:
    """The row writer's ``%`` template of a record on the sorted ``keys``
    at ``indent``: one ``%s`` per key, for its value rendered at ``indent``
    plus two spaces."""
    inner = indent + "  "
    return "{\n" + inner + f",\n{inner}".join(
        encode_basestring(key).replace("%", "%%") + ": %s" for key in keys
    ) + f"\n{indent}}}"


def _items(items: Iterable[str], indent: str) -> str:
    """A list at ``indent`` of items rendered at ``indent`` plus two spaces
    (no JSON value renders empty)."""
    inner = indent + "  "
    text = f",\n{inner}".join(items)
    return f"[\n{inner}{text}\n{indent}]" if text else "[]"


def _texts(values: Sequence[str], indent: str) -> str:
    """A list of strings at ``indent``."""
    return _items(map(encode_basestring, values), indent) if values else "[]"


def _rows(rows: Iterable[tuple], indent: str) -> Iterator[str]:
    """Each of ``rows`` at ``indent``: named tuples of strings (relations,
    associations), each a record keyed by its field names."""
    template = None
    for row in rows:
        if template is None:
            fields = row._fields
            keys = sorted(fields)
            template, order = _template(keys, indent), itemgetter(*map(fields.index, keys))
        yield template % tuple(map(encode_basestring, order(row)))


def _table(rows: Sequence[tuple], indent: str) -> str:
    """A list of ``_rows`` at ``indent``."""
    return _items(_rows(rows, indent + "  "), indent) if rows else "[]"


def _streamed(rows: Iterable[str]) -> Iterator[bytes]:
    """A top-level list, one item rendered at depth 2 at a time."""
    separator = "[\n    "
    for row in rows:
        yield (separator + row).encode("utf-8")
        separator = ",\n    "
    yield b"[]" if separator == "[\n    " else b"\n  ]"


def _document(members: dict[str, Any]) -> Iterator[bytes]:
    """A document's bytes, one top-level member by sorted key at a time: a
    member given as an iterator is streamed, any other goes through ``_render``."""
    separator = "{\n"
    for key in sorted(members):
        head = f"{separator}  {encode_basestring(key)}: "
        separator = ",\n"
        value = members[key]
        if isinstance(value, Iterator):
            yield head.encode("utf-8")
            yield from value
        else:
            yield (head + _render(value, "  ")).encode("utf-8")
    yield b"\n}\n"


def _dumps(document: dict) -> bytes:
    return (_render(document, "") + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# components


def parse_component(path) -> BusinessComponent:
    """Read and validate one component document."""
    doc = _load_document(path)
    context = str(path)
    _check_version(doc, context)
    component_id = _field(doc, "id", str, context)
    name = _field(doc, "name", str, context)
    entities = []
    for index, raw in enumerate(_field(doc, "entities", list, context)):
        at = (context, ": entities", index)
        _expect(type(raw) is dict, at, "entity must be an object")
        fields = (_field(raw, "name", str, at), _strings(raw, "attributes", at),
                  _associations(raw, at), _strings(raw, "components", at))
        try:
            entities.append(Entity(*fields))
        except SchemaViolation as exc:
            raise _in_context(exc, at) from exc
    relations = []
    for index, raw in enumerate(_field(doc, "relations", list, context, ())):
        at = (context, ": relations", index)
        _expect(type(raw) is dict, at, "relation must be an object")
        relations.append(
            ComponentRelation(*[_field(raw, key, str, at) for key in ("a", "b", "kind")])
        )
    try:
        return BusinessComponent(
            id=component_id, name=name,
            entities=tuple(entities), relations=tuple(relations),
        )
    except SchemaViolation as exc:
        raise _in_context(exc, context) from exc


def component_chunks(bc: BusinessComponent) -> Iterator[bytes]:
    """The bytes of ``serialize_component`` in order, one concept at a time by
    id, as an entity: ``name`` is its term, ``components`` its children's
    terms, and a relation's ends are their terms."""
    inner = " " * 6
    template = _template(("associations", "attributes", "components", "name"), "    ")
    concepts = bc.concepts
    entities = (
        template % (_table(concept.associations, inner) if concept.associations else "[]",
                    _texts(concept.attributes, inner) if concept.attributes else "[]",
                    _texts([concepts[c].term for c in concept.children], inner)
                    if concept.children else "[]",
                    encode_basestring(concept.term))
        for concept in map(concepts.__getitem__, sorted(concepts))
    )
    relations = sorted(ComponentRelation(concepts[r.a].term, concepts[r.b].term, r.kind)
                       for r in bc.semantic_relations())
    yield from _document({
        "format_version": FORMAT_VERSION, "id": bc.id, "name": bc.name,
        "entities": _streamed(entities), "relations": _streamed(_rows(relations, "    ")),
    })


def serialize_component(bc: BusinessComponent) -> bytes:
    """Canonical bytes for a component document."""
    return b"".join(component_chunks(bc))


# ---------------------------------------------------------------------------
# ontologies


def parse_ontology(path) -> Ontology:
    """Read and validate one ontology document."""
    doc = _load_document(path)
    context = str(path)
    _check_version(doc, context)
    ontology_id = _field(doc, "id", str, context)
    concepts = []
    for index, raw in enumerate(_field(doc, "concepts", list, context)):
        at = (context, ": concepts", index)
        _expect(type(raw) is dict, at, "concept must be an object")
        fields = (_field(raw, "id", str, at), _field(raw, "term", str, at),
                  _strings(raw, "children", at), _strings(raw, "attributes", at),
                  _associations(raw, at))
        try:
            concepts.append(Concept(*fields))
        except SchemaViolation as exc:
            raise _in_context(exc, at) from exc
    relations = [
        _relation(raw, (context, ": relations", index))
        for index, raw in enumerate(_field(doc, "relations", list, context, ()))
    ]
    try:
        ontology = Ontology(ontology_id, concepts=concepts, relations=relations)
        ontology.validate()
    except SchemaViolation as exc:
        raise _in_context(exc, context) from exc
    return ontology


def _concept_rows(ontology: Ontology) -> Iterator[str]:
    """Each concept at depth 2, by id; ``associations`` and ``attributes``
    are written only when not empty, so each of their four cases has a template."""
    inner = " " * 6
    templates = {
        (assoc, attr): _template(("associations",) * assoc + ("attributes",) * attr
                                 + ("children", "id", "term"), "    ")
        for assoc in (False, True) for attr in (False, True)
    }
    for cid in sorted(ontology.concepts):
        concept = ontology.concepts[cid]
        values = (_texts(concept.children, inner), encode_basestring(cid),
                  encode_basestring(concept.term))
        if concept.attributes:
            values = (_texts(concept.attributes, inner), *values)
        if concept.associations:
            values = (_table(concept.associations, inner), *values)
        yield templates[bool(concept.associations), bool(concept.attributes)] % values


def ontology_chunks(ontology: Ontology) -> Iterator[bytes]:
    """The bytes of ``serialize_ontology`` in order, one concept and one
    relation at a time."""
    yield from _document({
        "format_version": FORMAT_VERSION, "id": ontology.id,
        "concepts": _streamed(_concept_rows(ontology)),
        "relations": _streamed(_rows(ontology.ordered_relations(), "    ")),
    })


def serialize_ontology(ontology: Ontology) -> bytes:
    """Canonical bytes for an ontology document (part_of edges included)."""
    return b"".join(ontology_chunks(ontology))


# ---------------------------------------------------------------------------
# reports


def _correspondence_list(report: Report) -> Iterator[bytes]:
    """The report's correspondence list, each row of ``pair_rows`` as one
    chunk: its entries, each led by the separator and the row's head, which
    holds c1; the first row's head follows the list's opener on its own."""
    # the entry's template cut at the ids; its evidence sits at depth 3
    head, middle, rest = ("    " + _template(
        ("c1", "c2", "evidence", "score", "verdict"), "    ")).split("%s", 2)
    evidence = _template(("kind", "relations_used"), " " * 6)
    trivial_tail = rest % (evidence % ('"syntactic"', "[]"), '"0"', '"Distinct"')
    tails: dict[tuple[tuple[Relation, ...], tuple[str, int, int, str]], str] = {}
    # per side of a sparse report: b"", then each partner's entry as an
    # unlisted pair; joined, the leading b"" puts a separator before the first
    unlisted: dict[int, list[bytes]] = {}
    opener = b"[\n"  # until the first row is written
    for c1, side, partners, cells in pair_rows(report):
        if side is None:
            entries = [b""] * (len(partners) + 1)  # an explicit row lists every pair
        else:
            if side not in unlisted:
                unlisted[side] = [b"", *((encode_basestring(c2) + trivial_tail).encode("utf-8")
                                         for c2 in partners)]
            entries = unlisted[side].copy() if cells else unlisted[side]
        for k, corr in cells.items():
            score, (kind, relations) = corr.score, corr.evidence
            frame = (kind, score.numerator, score.denominator, corr.verdict)
            tail = tails.get((relations, frame))
            if tail is None:
                # relations_used sits four levels deep in the report
                tail = tails[relations, frame] = rest % (
                    evidence % (encode_basestring(kind), _table(relations, " " * 8)),
                    encode_basestring(str(score)), encode_basestring(corr.verdict))
            entries[k + 1] = (encode_basestring(corr.c2) + tail).encode("utf-8")
        if len(entries) > 1:  # no entry when every later source is empty
            row_head = (head + encode_basestring(c1) + middle).encode("utf-8")
            if opener:
                yield opener + row_head
                entries = entries[1:]
            yield (b",\n" + row_head).join(entries)
            opener = b""
    yield b"[]" if opener else b"\n  ]"


def _cluster_rows(clusters: Sequence[Cluster]) -> Iterator[str]:
    """Each cluster at depth 2, by (term, members).  ``merge`` gives them
    in that order, so they are sorted only when two neighbours are out of it."""
    template, inner = _template(("aliases", "members", "term"), "    "), " " * 6
    if any(a[0] > b[0] or a[0] == b[0] and a[1] > b[1] for a, b in zip(clusters, clusters[1:])):
        clusters = sorted(clusters, key=itemgetter(0, 1))
    for term, members, aliases in clusters:
        yield template % (_texts(aliases, inner) if aliases else "[]",
                          f"[\n{inner}  {encode_basestring(members[0])}\n{inner}]"
                          if len(members) == 1 else _texts(members, inner),
                          encode_basestring(term))


def _enrichment_rows(enrichments: Iterable[EnrichmentRecord]) -> Iterator[str]:
    """Each enrichment record at depth 2, by (pair, injected relation)."""
    template, inner = _template(("evidence", "injected", "pair"), "    "), " " * 6
    for record in sorted(enrichments, key=lambda r: (r.pair, r.injected)):
        injected, = _rows((record.injected,), inner)
        yield template % (_table(record.evidence, inner), injected, _texts(record.pair, inner))


def report_chunks(report: Report) -> Iterator[bytes]:
    """The bytes of ``serialize_report`` in order, never held whole: each
    top-level member by sorted key, each cluster and enrichment record on
    its own and each row of correspondences as one chunk.  Clusters are
    sorted only when they arrive out of (term, members) order, which
    ``merge`` gives.  A sparse row whose c1 lists no pair allocates only
    its chunk: it joins its side's unlisted entries in place.  Raises
    SchemaViolation where ``pair_rows`` does, possibly after some chunks."""
    yield from _document({
        "format_version": FORMAT_VERSION, "warnings": sorted(report.warnings),
        "clusters": _streamed(_cluster_rows(report.clusters)),
        "correspondences": _correspondence_list(report),
        "enrichments": _streamed(_enrichment_rows(report.enrichments)),
    })


def serialize_report(report: Report) -> bytes:
    """Canonical bytes for a report document: the join of ``report_chunks``.

    Scores are exact fraction strings; every list is sorted by its
    primary key.  The bytes are those ``_dumps`` gives for the report as
    one dict whose correspondence list names every pair, in (c1, c2)
    order: a sparse report (``Report.pair_space`` set) gets its unlisted
    pairs written as (0, syntactic, Distinct) entries, so v1 files list
    every pair either way.  That list is written one string per row of
    ``model.pair_rows``: the entry's ``_template`` is cut at c1 and c2
    once per report, the rest filled once per distinct (evidence, score,
    verdict), and each side of a sparse report encodes its partners once
    as unlisted entries, which a row reuses or patches a copy of.
    ``tests/test_model_io.py`` keeps a plain ``json.dumps`` rendering as
    the oracle for these bytes.  Raises SchemaViolation where
    ``pair_rows`` does.
    """
    return b"".join(report_chunks(report))


def parse_report(path) -> Report:
    """Read a report document back into memory (the serializer's inverse).

    The result is explicit (empty ``pair_space``): its correspondences
    are every pair the file lists, and a pair listed twice is rejected.
    Correspondences share one ``Fraction`` per score string, one ``Evidence``
    per kind that lists no relation, and one string per concept id.
    """
    doc = _load_document(path)
    context = str(path)
    _check_version(doc, context)
    correspondences = []
    pairs: set[tuple[str, str]] = set()
    scores: dict[str, Fraction] = {}
    bare = {SYNTACTIC.kind: SYNTACTIC}  # evidence kind -> its Evidence without relations
    ids: dict[str, str] = {}
    for index, raw in enumerate(_field(doc, "correspondences", list, context)):
        at = (context, ": correspondences", index)
        _expect(type(raw) is dict, at, "correspondence must be an object")
        evidence = _field(raw, "evidence", dict, at)
        text = _field(raw, "score", str, at)
        score = scores.get(text)
        if score is None:
            try:
                score = scores[text] = Fraction(text)
            except (ValueError, ZeroDivisionError) as exc:
                raise SchemaViolation(f"{_context(at)}: bad score: {exc}") from exc
        c1, c2 = _field(raw, "c1", str, at), _field(raw, "c2", str, at)
        c1, c2 = ids.setdefault(c1, c1), ids.setdefault(c2, c2)
        verdict, kind = _field(raw, "verdict", str, at), _field(evidence, "kind", str, at)
        relations = tuple(
            _relation(r, (at, ".evidence.relations_used", rindex))
            for rindex, r in enumerate(_field(evidence, "relations_used", list, at, ()))
        )
        try:
            proof = (Evidence(kind, relations) if relations
                     else bare.get(kind) or bare.setdefault(kind, Evidence(kind)))
            correspondences.append(Correspondence(c1, c2, score, verdict, proof))
        except SchemaViolation as exc:
            raise _in_context(exc, at) from exc
        pair = c1, c2
        _expect(pair not in pairs, at, f"pair {pair} is listed twice")
        pairs.add(pair)
    enrichments = []
    for index, raw in enumerate(_field(doc, "enrichments", list, context, ())):
        at = (context, ": enrichments", index)
        _expect(type(raw) is dict, at, "enrichment must be an object")
        pair = _field(raw, "pair", list, at)
        _expect(len(pair) == 2 and all(type(p) is str for p in pair), at,
                "pair must hold two concept ids")
        injected = _relation(_field(raw, "injected", dict, at), (at, ".injected", None))
        evidence = tuple(
            _relation(r, (at, ".evidence", rindex))
            for rindex, r in enumerate(_field(raw, "evidence", list, at, ()))
        )
        try:
            enrichments.append(EnrichmentRecord(injected, evidence, (pair[0], pair[1])))
        except SchemaViolation as exc:
            raise _in_context(exc, at) from exc
    clusters = []
    for index, raw in enumerate(_field(doc, "clusters", list, context, ())):
        at = (context, ": clusters", index)
        _expect(type(raw) is dict, at, "cluster must be an object")
        fields = (_field(raw, "term", str, at), _strings(raw, "members", at),
                  _strings(raw, "aliases", at))
        try:
            clusters.append(Cluster(*fields))
        except SchemaViolation as exc:
            raise _in_context(exc, at) from exc
    return Report(
        correspondences=correspondences,
        enrichments=enrichments,
        clusters=clusters,
        warnings=list(_strings(doc, "warnings", context)),
    )


# ---------------------------------------------------------------------------
# DOT export


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def export_dot(ontology: Ontology) -> bytes:
    """Render an ontology as a DOT digraph for inspection.

    Concepts become nodes labeled with their terms; part_of edges are
    directed, the symmetric kinds undirected, each labeled with its kind.
    """
    lines = [f'digraph "{_dot_escape(ontology.id)}" {{']
    for cid in sorted(ontology.concepts):
        concept = ontology.concepts[cid]
        lines.append(f'  "{_dot_escape(cid)}" [label="{_dot_escape(concept.term)}"];')
    for relation in ontology.ordered_relations():
        arrow = (
            f'  "{_dot_escape(relation.a)}" -> "{_dot_escape(relation.b)}"'
            f' [label="{relation.kind}"'
        )
        if relation.kind != "part_of":
            arrow += ", dir=none"
        lines.append(arrow + "];")
    lines.append("}")
    return ("\n".join(lines) + "\n").encode("utf-8")
