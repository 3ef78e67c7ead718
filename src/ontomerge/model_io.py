"""File formats: component, ontology, and report documents plus DOT export.

All three formats are JSON with an explicit ``"format_version": 1`` field.
Serializers emit keys and list elements in sorted order, so equal values
produce byte-identical output; ``parse(serialize(v))`` is the identity.
Every invariant violation is detected at parse time and reported as a
SchemaViolation naming the offending path or field; broken JSON or
encodings raise MalformedFile.

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
rejected.  Concepts accept optional ``attributes``, ``associations`` and
``aliases`` keys, which carry component metadata through round trips.

Report documents mirror the Report type; scores are exact fraction
strings such as "1", "0" or "1/2".

One function, ``_render``, renders every document, each report
correspondence included: its head and tail are cut from ``_render``'s
output.  ``report_chunks`` streams a report one top-level member, and
one row of correspondences, at a time.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring
from pathlib import Path
from typing import Any, Iterator

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
    SYNTACTIC,
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


def _expect(condition: bool, context: str, message: str) -> None:
    if not condition:
        raise SchemaViolation(f"{context}: {message}")


def _get(obj: dict, key: str, types, context: str, default=_expect):
    if key not in obj:
        if default is not _expect:
            return default
        raise SchemaViolation(f"{context}: missing field {key!r}")
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, types):  # a bool is an int
        names = types.__name__ if isinstance(types, type) else "/".join(
            t.__name__ for t in types
        )
        raise SchemaViolation(f"{context}: field {key!r} must be {names}")
    return value


def _check_version(doc: Any, context: str) -> None:
    _expect(isinstance(doc, dict), context, "document root must be an object")
    version = _get(doc, "format_version", int, context)
    _expect(
        version == FORMAT_VERSION,
        context,
        f"unsupported format_version {version} (expected {FORMAT_VERSION})",
    )


def _string_list(obj: dict, key: str, context: str) -> tuple[str, ...]:
    values = _get(obj, key, list, context, default=[])
    for index, value in enumerate(values):
        _expect(isinstance(value, str), context, f"{key}[{index}] must be a string")
    return tuple(values)


def _associations(obj: dict, context: str) -> tuple[Association, ...]:
    """The optional ``associations`` list of an entity or concept object."""
    associations = []
    for index, assoc in enumerate(_get(obj, "associations", list, context, default=[])):
        actx = f"{context}.associations[{index}]"
        _expect(isinstance(assoc, dict), actx, "association must be an object")
        associations.append(
            Association(
                target=_get(assoc, "target", str, actx),
                label=_get(assoc, "label", str, actx),
            )
        )
    return tuple(associations)


def _relation(raw: Any, context: str) -> Relation:
    """One relation object of an ontology or report document."""
    _expect(isinstance(raw, dict), context, "relation must be an object")
    a, b, kind = (_get(raw, key, str, context) for key in ("a", "b", "kind"))
    provenance = _get(raw, "provenance", str, context, default="declared")
    try:
        return Relation(a, b, kind, provenance)
    except SchemaViolation as exc:
        raise SchemaViolation(f"{context}: {exc}") from exc


def _render(value: Any, indent: str) -> str:
    """``json.dumps`` of ``value`` with ``ensure_ascii=False``, two-space
    indentation and sorted keys, ``indent`` put before every line but the
    first; only scalars other than strings go through ``json.dumps``.  An
    exact ``str`` item is encoded in place, an empty dict or list at once."""
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
        items = [encode_basestring(v) if type(v) is str else _render(v, inner) for v in value]
        return "[\n" + inner + f",\n{inner}".join(items) + f"\n{indent}]"
    return json.dumps(value)


def _dumps(document: dict) -> bytes:
    return (_render(document, "") + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# components


def parse_component(path) -> BusinessComponent:
    """Read and validate one component document."""
    doc = _load_document(path)
    context = str(path)
    _check_version(doc, context)
    component_id = _get(doc, "id", str, context)
    name = _get(doc, "name", str, context)
    entities = []
    raw_entities = _get(doc, "entities", list, context)
    for index, raw in enumerate(raw_entities):
        ectx = f"{context}: entities[{index}]"
        _expect(isinstance(raw, dict), ectx, "entity must be an object")
        entities.append(
            Entity(
                name=_get(raw, "name", str, ectx),
                attributes=_string_list(raw, "attributes", ectx),
                associations=_associations(raw, ectx),
                components=_string_list(raw, "components", ectx),
            )
        )
    relations = []
    for index, raw in enumerate(_get(doc, "relations", list, context, default=[])):
        rctx = f"{context}: relations[{index}]"
        _expect(isinstance(raw, dict), rctx, "relation must be an object")
        relations.append(
            ComponentRelation(
                a=_get(raw, "a", str, rctx),
                b=_get(raw, "b", str, rctx),
                kind=_get(raw, "kind", str, rctx),
            )
        )
    try:
        return BusinessComponent(
            id=component_id, name=name,
            entities=tuple(entities), relations=tuple(relations),
        )
    except SchemaViolation as exc:
        raise SchemaViolation(f"{context}: {exc}") from exc


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
    ontology_id = _get(doc, "id", str, context)
    concepts = []
    for index, raw in enumerate(_get(doc, "concepts", list, context)):
        cctx = f"{context}: concepts[{index}]"
        _expect(isinstance(raw, dict), cctx, "concept must be an object")
        concepts.append(
            Concept(
                id=_get(raw, "id", str, cctx),
                term=_get(raw, "term", str, cctx),
                children=_string_list(raw, "children", cctx),
                attributes=_string_list(raw, "attributes", cctx),
                associations=_associations(raw, cctx),
                aliases=_string_list(raw, "aliases", cctx),
            )
        )
    relations = [
        _relation(raw, f"{context}: relations[{index}]")
        for index, raw in enumerate(_get(doc, "relations", list, context, default=[]))
    ]
    try:
        ontology = Ontology(ontology_id, concepts=concepts, relations=relations)
        ontology.validate()
    except SchemaViolation as exc:
        raise SchemaViolation(f"{context}: {exc}") from exc
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
        if concept.aliases:
            entry["aliases"] = list(concept.aliases)
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


def _correspondence_parts(evidence: Evidence, score: Fraction, verdict: str) -> list[str]:
    """One correspondence as ``_dumps`` lays it out at depth 2, with empty
    ids, cut at them: the text before c1, between c1 and c2, and after c2.
    Sorted keys put the ids first, so the first two ``""`` are theirs."""
    entry = {
        "c1": "", "c2": "", "score": str(score), "verdict": verdict,
        "evidence": {"kind": evidence.kind,
                     "relations_used": [r.to_dict() for r in evidence.relations_used]},
    }
    return ("    " + _render(entry, "    ")).split('""', 2)


def _correspondence_list(report: Report) -> Iterator[str]:
    """The correspondence entries, one string per row of ``pair_rows``."""
    head, middle, trivial_tail = _correspondence_parts(SYNTACTIC, Fraction(0), "Distinct")
    tails: dict[tuple[Evidence, int, int, str], str] = {}
    # per side of a sparse report: each partner's entry as an unlisted pair
    unlisted: dict[int, list[str]] = {}
    for c1, side, partners, cells in pair_rows(report):
        if side is None:
            entries = [""] * len(partners)  # an explicit row lists every pair
        else:
            if side not in unlisted:
                unlisted[side] = [encode_basestring(c2) + trivial_tail for c2 in partners]
            entries = unlisted[side].copy() if cells else unlisted[side]
        for k, corr in cells.items():
            score = corr.score
            key = (corr.evidence, score.numerator, score.denominator, corr.verdict)
            tail = tails.get(key)
            if tail is None:
                tail = tails[key] = _correspondence_parts(corr.evidence, score, corr.verdict)[2]
            entries[k] = encode_basestring(corr.c2) + tail
        if entries:  # none when every later source is empty
            row_head = head + encode_basestring(c1) + middle
            yield row_head + (",\n" + row_head).join(entries)


def report_chunks(report: Report) -> Iterator[bytes]:
    """The bytes of ``serialize_report`` in order, never held whole: the
    opening brace, each top-level member by sorted key, and the
    correspondence rows with their separators.  Raises SchemaViolation
    where ``pair_rows`` does, possibly after some chunks."""
    fields: dict[str, Any] = {
        "format_version": FORMAT_VERSION,
        "enrichments": [
            {
                "pair": list(record.pair),
                "injected": record.injected.to_dict(),
                "evidence": [r.to_dict() for r in record.evidence],
            }
            for record in sorted(
                report.enrichments, key=lambda r: (r.pair, r.injected)
            )
        ],
        "clusters": [
            {
                "term": cluster.term,
                "members": list(cluster.members),
                "aliases": list(cluster.aliases),
            }
            for cluster in sorted(
                report.clusters, key=lambda cl: (cl.term, cl.members)
            )
        ],
        "warnings": sorted(report.warnings),
    }
    separator = "{\n"
    for key in sorted([*fields, "correspondences"]):
        member = f"{separator}  {encode_basestring(key)}: "
        separator = ",\n"
        if key != "correspondences":
            yield (member + _render(fields[key], "  ")).encode("utf-8")
            continue
        empty = True
        for row in _correspondence_list(report):
            yield (member + "[\n").encode("utf-8") if empty else b",\n"
            yield row.encode("utf-8")
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
    empty ids: the ids go between them through the encoder
    ``json.dumps(ensure_ascii=False)`` uses, the head is cut once per
    report and the tail once per distinct (evidence, score, verdict).
    Each side of a sparse report renders its partners once as unlisted
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
    for index, raw in enumerate(_get(doc, "correspondences", list, context)):
        cctx = f"{context}: correspondences[{index}]"
        _expect(isinstance(raw, dict), cctx, "correspondence must be an object")
        evidence_raw = _get(raw, "evidence", dict, cctx)
        try:
            score = Fraction(_get(raw, "score", str, cctx))
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaViolation(f"{cctx}: bad score: {exc}") from exc
        correspondences.append(
            Correspondence(
                c1=_get(raw, "c1", str, cctx),
                c2=_get(raw, "c2", str, cctx),
                score=score,
                verdict=_get(raw, "verdict", str, cctx),
                evidence=Evidence(
                    kind=_get(evidence_raw, "kind", str, cctx),
                    relations_used=tuple(
                        _relation(r, f"{cctx}.evidence.relations_used[{rindex}]")
                        for rindex, r in enumerate(
                            _get(evidence_raw, "relations_used", list, cctx, default=[])
                        )
                    ),
                ),
            )
        )
        pair = correspondences[-1].pair
        _expect(pair not in pairs, cctx, f"pair {pair} is listed twice")
        pairs.add(pair)
    enrichments = []
    for index, raw in enumerate(_get(doc, "enrichments", list, context, default=[])):
        ectx = f"{context}: enrichments[{index}]"
        _expect(isinstance(raw, dict), ectx, "enrichment must be an object")
        pair = _get(raw, "pair", list, ectx)
        _expect(
            len(pair) == 2 and all(isinstance(p, str) for p in pair),
            ectx,
            "pair must hold two concept ids",
        )
        enrichments.append(
            EnrichmentRecord(
                injected=_relation(_get(raw, "injected", dict, ectx), f"{ectx}.injected"),
                evidence=tuple(
                    _relation(r, f"{ectx}.evidence[{rindex}]")
                    for rindex, r in enumerate(_get(raw, "evidence", list, ectx, default=[]))
                ),
                pair=(pair[0], pair[1]),
            )
        )
    clusters = []
    for index, raw in enumerate(_get(doc, "clusters", list, context, default=[])):
        clctx = f"{context}: clusters[{index}]"
        _expect(isinstance(raw, dict), clctx, "cluster must be an object")
        clusters.append(
            Cluster(
                term=_get(raw, "term", str, clctx),
                members=_string_list(raw, "members", clctx),
                aliases=_string_list(raw, "aliases", clctx),
            )
        )
    return Report(
        correspondences=correspondences,
        enrichments=enrichments,
        clusters=clusters,
        warnings=list(_string_list(doc, "warnings", context)),
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
