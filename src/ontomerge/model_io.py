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
entities of the same document.

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

One function, ``_render``, renders every document, each report
correspondence included: its frame is cut from ``_render``'s output at
the ids and at its relations list.  A list of several non-empty dicts on
one key set (entities, concepts, relations, clusters, enrichments) is
rendered column-wise: one ``%`` template from the sorted keys, filled
with each key's values rendered together, a column of strings or of
string lists without a call per value.  ``report_chunks`` streams a
report one top-level member, and one row of correspondences, at a time.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

from .errors import MalformedFile, SchemaViolation
from .model import (
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
    # only a \ud800-\udfff escape can put a surrogate in a decoded string
    if ("\\ud" in text or "\\uD" in text) and _has_lone_surrogate(document):
        raise MalformedFile(f"{path}: invalid JSON: unpaired surrogate escape in a string")
    return document


def _has_lone_surrogate(document: Any) -> bool:
    """Whether a key or string anywhere in ``document`` cannot be UTF-8 encoded.

    The JSON decoder joins an escaped surrogate pair into one character,
    so what fails to encode is an unpaired surrogate.  Iterative, so that
    any depth the decoder accepted is walked.
    """
    pending = [document]
    while pending:
        value = pending.pop()
        if isinstance(value, dict):
            pending.extend(value)
            pending.extend(value.values())
        elif isinstance(value, list):
            pending.extend(value)
        elif isinstance(value, str):
            try:
                value.encode("utf-8")
            except UnicodeEncodeError:
                return True
    return False


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
    first; only scalars other than strings go through ``json.dumps``.  An
    exact ``str`` item is encoded in place, an empty dict or list at once,
    a list of several non-empty dicts on one key set by ``_records`` and
    any other list by ``_column``."""
    if isinstance(value, str):
        return encode_basestring(value)
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            f"{encode_basestring(k)}: "
            f"{encode_basestring(v) if type(v) is str else _render(v, inner)}"
            for k, v in sorted(value.items())
        ]
        return "{\n" + inner + f",\n{inner}".join(items) + f"\n{indent}}}"
    if isinstance(value, list):
        if not value:
            return "[]"
        first = value[0]
        if len(value) > 1 and type(first) is dict and first and all(
                type(v) is dict and v.keys() == first.keys() for v in value):
            items = _records(value, inner)
        else:
            items = _column(value, inner)
        return "[\n" + inner + f",\n{inner}".join(items) + f"\n{indent}]"
    return json.dumps(value)


def _records(records: list[dict], indent: str) -> list[str]:
    """``_render`` of each of several non-empty dicts on one key set at
    ``indent``: one ``%`` template from the sorted keys, filled a column
    of values at a time."""
    inner = indent + "  "
    keys = sorted(records[0])
    template = "{\n" + inner + f",\n{inner}".join(
        encode_basestring(key).replace("%", "%%") + ": %s" for key in keys
    ) + f"\n{indent}}}"
    columns = [_column([record[key] for record in records], inner) for key in keys]
    return [template % row for row in zip(*columns)]


def _column(values: list, indent: str) -> Iterable[str]:
    """``_render`` of each value at ``indent``.  A column of strings, or of
    lists of strings, is encoded without recursing into each value."""
    if all(type(v) is str for v in values):
        return map(encode_basestring, values)
    inner = indent + "  "
    if all(type(v) is list for v in values) and all(
            type(item) is str for v in values for item in v):
        separator = f",\n{inner}"
        return [
            f"[\n{inner}{separator.join(map(encode_basestring, v))}\n{indent}]" if v else "[]"
            for v in values
        ]
    return [encode_basestring(v) if type(v) is str else _render(v, indent) for v in values]


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


def serialize_component(bc: BusinessComponent) -> bytes:
    """Canonical bytes for a component document."""
    return _dumps(
        {
            "format_version": FORMAT_VERSION,
            "id": bc.id,
            "name": bc.name,
            "entities": [
                {
                    "name": entity.name,
                    "attributes": list(entity.attributes),
                    "associations": [
                        {"target": a.target, "label": a.label}
                        for a in entity.associations
                    ],
                    "components": list(entity.components),
                }
                for entity in bc.entities
            ],
            "relations": [
                {"a": r.a, "b": r.b, "kind": r.kind} for r in bc.relations
            ],
        }
    )


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


def serialize_ontology(ontology: Ontology) -> bytes:
    """Canonical bytes for an ontology document (part_of edges included)."""
    concepts = []
    for cid in sorted(ontology.concepts):
        concept = ontology.concepts[cid]
        entry: dict[str, Any] = {
            "id": concept.id,
            "term": concept.term,
            "children": list(concept.children),
        }
        if concept.attributes:
            entry["attributes"] = list(concept.attributes)
        if concept.associations:
            entry["associations"] = [
                {"target": a.target, "label": a.label} for a in concept.associations
            ]
        concepts.append(entry)
    return _dumps(
        {
            "format_version": FORMAT_VERSION,
            "id": ontology.id,
            "concepts": concepts,
            "relations": [r.to_dict() for r in ontology.relations],
        }
    )


# ---------------------------------------------------------------------------
# reports


def _correspondence_frame(kind: str, score: Fraction, verdict: str) -> list[str]:
    """One correspondence as ``_dumps`` lays it out at depth 2, with empty
    ids and ``""`` for its relations list, cut at those three: the text
    before c1, between c1 and c2, between c2 and the relations, and after
    them.  Sorted keys put c1, c2, the evidence kind and its relations in
    this order, and no kind, score or verdict is empty, so the first three
    ``""`` are theirs."""
    entry = {
        "c1": "", "c2": "", "score": str(score), "verdict": verdict,
        "evidence": {"kind": kind, "relations_used": ""},
    }
    return ("    " + _render(entry, "    ")).split('""', 3)


def _correspondence_rows(report: Report) -> Iterator[tuple[bytes, bytes]]:
    """The correspondence entries of each row of ``pair_rows`` as two
    chunks: the row's head, which holds c1, and its entries, each after
    the first preceded by the separator and the head."""
    head, middle, before, after = _correspondence_frame("syntactic", Fraction(0), "Distinct")
    trivial_tail = before + "[]" + after
    frames: dict[tuple[str, int, int, str], list[str]] = {}
    tails: dict[tuple[tuple[Relation, ...], tuple[str, int, int, str]], str] = {}
    # per side of a sparse report: each partner's entry as an unlisted pair
    unlisted: dict[int, list[bytes]] = {}
    for c1, side, partners, cells in pair_rows(report):
        if side is None:
            entries = [b""] * len(partners)  # an explicit row lists every pair
        else:
            if side not in unlisted:
                unlisted[side] = [(encode_basestring(c2) + trivial_tail).encode("utf-8")
                                  for c2 in partners]
            entries = unlisted[side].copy() if cells else unlisted[side]
        for k, corr in cells.items():
            score, (kind, relations) = corr.score, corr.evidence
            frame = (kind, score.numerator, score.denominator, corr.verdict)
            tail = tails.get((relations, frame))
            if tail is None:
                if frame not in frames:
                    frames[frame] = _correspondence_frame(kind, score, corr.verdict)[2:]
                # relations_used sits four levels deep in the report
                rendered = _render([r.to_dict() for r in relations], " " * 8)
                tail = tails[relations, frame] = rendered.join(frames[frame])
            entries[k] = (encode_basestring(corr.c2) + tail).encode("utf-8")
        if entries:  # none when every later source is empty
            row_head = (head + encode_basestring(c1) + middle).encode("utf-8")
            yield row_head, (b",\n" + row_head).join(entries)


def report_chunks(report: Report) -> Iterator[bytes]:
    """The bytes of ``serialize_report`` in order, never held whole: the
    opening brace, each top-level member by sorted key, and the
    correspondence rows with their separators.  A member other than the
    correspondences is built only when it is rendered and dropped after;
    each row is two chunks of bytes, its head and its joined entries.
    Raises SchemaViolation where ``pair_rows`` does, possibly after some
    chunks."""
    members = {
        "format_version": lambda: FORMAT_VERSION,
        "enrichments": lambda: [
            {
                "pair": list(record.pair),
                "injected": record.injected.to_dict(),
                "evidence": [r.to_dict() for r in record.evidence],
            }
            for record in sorted(report.enrichments, key=lambda r: (r.pair, r.injected))
        ],
        "clusters": lambda: [
            {
                "term": cluster.term,
                "members": list(cluster.members),
                "aliases": list(cluster.aliases),
            }
            for cluster in sorted(report.clusters, key=lambda cl: (cl.term, cl.members))
        ],
        "warnings": lambda: sorted(report.warnings),
        "correspondences": None,
    }
    separator = "{\n"
    for key in sorted(members):
        member = f"{separator}  {encode_basestring(key)}: "
        separator = ",\n"
        if members[key]:
            yield (member + _render(members[key](), "  ")).encode("utf-8")
            continue
        empty = True
        for row_head, entries in _correspondence_rows(report):
            yield (member + "[\n").encode("utf-8") + row_head if empty else b",\n" + row_head
            yield entries
            empty = False
        yield (member + "[]").encode("utf-8") if empty else b"\n  ]"
    yield b"\n}\n"


def serialize_report(report: Report) -> bytes:
    """Canonical bytes for a report document: the join of ``report_chunks``.

    Scores are exact fraction strings; every list is sorted by its
    primary key.  The bytes are those ``_dumps`` gives for the report as
    one dict whose correspondence list names every pair, in (c1, c2)
    order: a sparse report (``Report.pair_space`` set) gets its unlisted
    pairs written as (0, syntactic, Distinct) entries, so v1 files list
    every pair either way.  That list is written one string per row of
    ``model.pair_rows``, from the parts ``_render`` gives an entry with
    empty ids and relations: the ids go between them through the encoder
    ``json.dumps(ensure_ascii=False)`` uses, the head is cut once per
    report, the frame of the tail once per distinct (evidence kind,
    score, verdict), and only the relations list is rendered per
    distinct (evidence, score, verdict).
    Each side of a sparse report encodes its partners once as unlisted
    entries; a row reuses that list, or patches a copy of it at the
    positions it lists.  The other top-level values go through
    ``_render``.  ``tests/test_model_io.py`` keeps a plain ``json.dumps``
    rendering as the oracle for these bytes.  Raises SchemaViolation
    where ``pair_rows`` does.
    """
    return b"".join(report_chunks(report))


def parse_report(path) -> Report:
    """Read a report document back into memory (the serializer's inverse).

    The result is explicit (empty ``pair_space``): its correspondences
    are every pair the file lists, and a pair listed twice is rejected.
    """
    doc = _load_document(path)
    context = str(path)
    _check_version(doc, context)
    correspondences = []
    pairs: set[tuple[str, str]] = set()
    for index, raw in enumerate(_field(doc, "correspondences", list, context)):
        at = (context, ": correspondences", index)
        _expect(type(raw) is dict, at, "correspondence must be an object")
        evidence = _field(raw, "evidence", dict, at)
        try:
            score = Fraction(_field(raw, "score", str, at))
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaViolation(f"{_context(at)}: bad score: {exc}") from exc
        c1, c2 = _field(raw, "c1", str, at), _field(raw, "c2", str, at)
        verdict, kind = _field(raw, "verdict", str, at), _field(evidence, "kind", str, at)
        relations = tuple(
            _relation(r, (at, ".evidence.relations_used", rindex))
            for rindex, r in enumerate(_field(evidence, "relations_used", list, at, ()))
        )
        try:
            correspondences.append(
                Correspondence(c1, c2, score, verdict, Evidence(kind, relations)))
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
    for relation in ontology.relations:
        arrow = (
            f'  "{_dot_escape(relation.a)}" -> "{_dot_escape(relation.b)}"'
            f' [label="{relation.kind}"'
        )
        if relation.kind != "part_of":
            arrow += ", dir=none"
        lines.append(arrow + "];")
    lines.append("}")
    return ("\n".join(lines) + "\n").encode("utf-8")
