"""The one-pass component and ontology readers against the per-field readers
they replaced.

``naive_parse_component`` and ``naive_parse_ontology`` check one field per
call and build every entry's error context up front, as ``model_io`` did
before its readers checked types inline.  They serve as the oracle here:
on any mutation of a valid document the readers must raise the same
SchemaViolation text, and on a valid document return equal values.  An
error that a value's constructor raises is led by the entry's context, or
the document's, and keeps its class (``EmptyTerm`` stays ``EmptyTerm``).
"""

import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ontomerge import (
    Association,
    BusinessComponent,
    Concept,
    Entity,
    Ontology,
    Relation,
    SchemaViolation,
    parse_component,
    parse_ontology,
)
from ontomerge.model import ComponentRelation
from ontomerge.model_io import FORMAT_VERSION, _load_document

_REQUIRED = object()


def _expect(condition, context, message):
    if not condition:
        raise SchemaViolation(f"{context}: {message}")


def _get(obj, key, types, context, default=_REQUIRED):
    if key not in obj:
        if default is not _REQUIRED:
            return default
        raise SchemaViolation(f"{context}: missing field {key!r}")
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, types):  # a bool is an int
        raise SchemaViolation(f"{context}: field {key!r} must be {types.__name__}")
    return value


def _check_version(doc, context):
    _expect(isinstance(doc, dict), context, "document root must be an object")
    version = _get(doc, "format_version", int, context)
    _expect(
        version == FORMAT_VERSION,
        context,
        f"unsupported format_version {version} (expected {FORMAT_VERSION})",
    )


def _string_list(obj, key, context):
    values = _get(obj, key, list, context, default=[])
    for index, value in enumerate(values):
        _expect(isinstance(value, str), context, f"{key}[{index}] must be a string")
    return tuple(values)


def _associations(obj, context):
    associations = []
    for index, assoc in enumerate(_get(obj, "associations", list, context, default=[])):
        actx = f"{context}.associations[{index}]"
        _expect(isinstance(assoc, dict), actx, "association must be an object")
        associations.append(
            Association(target=_get(assoc, "target", str, actx), label=_get(assoc, "label", str, actx))
        )
    return tuple(associations)


def _relation(raw, context):
    _expect(isinstance(raw, dict), context, "relation must be an object")
    a, b, kind = (_get(raw, key, str, context) for key in ("a", "b", "kind"))
    provenance = _get(raw, "provenance", str, context, default="declared")
    try:
        return Relation(a, b, kind, provenance)
    except SchemaViolation as exc:
        raise type(exc)(f"{context}: {exc}") from exc


def naive_parse_component(path):
    doc = _load_document(path)
    context = str(path)
    _check_version(doc, context)
    component_id = _get(doc, "id", str, context)
    name = _get(doc, "name", str, context)
    entities = []
    for index, raw in enumerate(_get(doc, "entities", list, context)):
        ectx = f"{context}: entities[{index}]"
        _expect(isinstance(raw, dict), ectx, "entity must be an object")
        fields = dict(
            name=_get(raw, "name", str, ectx),
            attributes=_string_list(raw, "attributes", ectx),
            associations=_associations(raw, ectx),
            components=_string_list(raw, "components", ectx),
        )
        try:
            entities.append(Entity(**fields))
        except SchemaViolation as exc:
            raise type(exc)(f"{ectx}: {exc}") from exc
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
            id=component_id, name=name, entities=tuple(entities), relations=tuple(relations),
        )
    except SchemaViolation as exc:
        raise type(exc)(f"{context}: {exc}") from exc


def naive_parse_ontology(path):
    doc = _load_document(path)
    context = str(path)
    _check_version(doc, context)
    ontology_id = _get(doc, "id", str, context)
    concepts = []
    for index, raw in enumerate(_get(doc, "concepts", list, context)):
        cctx = f"{context}: concepts[{index}]"
        _expect(isinstance(raw, dict), cctx, "concept must be an object")
        fields = dict(
            id=_get(raw, "id", str, cctx),
            term=_get(raw, "term", str, cctx),
            children=_string_list(raw, "children", cctx),
            attributes=_string_list(raw, "attributes", cctx),
            associations=_associations(raw, cctx),
            aliases=_string_list(raw, "aliases", cctx),
        )
        try:
            concepts.append(Concept(**fields))
        except SchemaViolation as exc:
            raise type(exc)(f"{cctx}: {exc}") from exc
    relations = [
        _relation(raw, f"{context}: relations[{index}]")
        for index, raw in enumerate(_get(doc, "relations", list, context, default=[]))
    ]
    try:
        ontology = Ontology(ontology_id, concepts=concepts, relations=relations)
        ontology.validate()
    except SchemaViolation as exc:
        raise type(exc)(f"{context}: {exc}") from exc
    return ontology


# ---------------------------------------------------------------------------
# documents and their mutations

# Entity names; a reference may also be spelled as another name's variant.
NAMES = ("Service", "Cabinet", "Prestation", "Compagnie")
REFERENCES = st.sampled_from((*NAMES, "service "))
WORDS = st.sampled_from(("code", "prix", "tarif"))
KINDS = st.sampled_from(("synonymy", "homonymy", "equivalence"))


def _optional(draw, entry, key, strategy):
    """Set ``entry[key]`` from ``strategy``, or leave the key out."""
    if draw(st.booleans()):
        entry[key] = draw(strategy)


@st.composite
def component_documents(draw):
    names = draw(st.lists(st.sampled_from(NAMES), unique=True, max_size=4))
    entities = []
    for index, name in enumerate(names):
        entity = {"name": name}
        _optional(draw, entity, "attributes", st.lists(WORDS, unique=True, max_size=2))
        _optional(draw, entity, "associations", st.lists(
            st.fixed_dictionaries({"target": REFERENCES, "label": WORDS}), max_size=2))
        # children come from earlier entities only, so most documents are acyclic
        if index:
            _optional(draw, entity, "components",
                      st.lists(st.sampled_from(names[:index]), unique=True, max_size=2))
        entities.append(entity)
    doc = {"format_version": 1, "id": "CM1", "name": "Clinic", "entities": entities}
    if len(names) > 1:
        _optional(draw, doc, "relations", st.lists(st.fixed_dictionaries(
            {"a": REFERENCES, "b": st.sampled_from(names), "kind": KINDS}),
            max_size=2))
    return doc


@st.composite
def ontology_documents(draw):
    count = draw(st.integers(0, 4))
    ids = [f"Od#{index}" for index in range(count)]
    concepts = []
    for index, cid in enumerate(ids):
        concept = {"id": cid, "term": draw(st.sampled_from(NAMES))}
        _optional(draw, concept, "children",
                  st.lists(st.sampled_from(ids[:index]), unique=True, max_size=2)
                  if index else st.just([]))
        _optional(draw, concept, "attributes", st.lists(WORDS, unique=True, max_size=2))
        _optional(draw, concept, "associations", st.lists(
            st.fixed_dictionaries({"target": st.sampled_from(NAMES), "label": WORDS}),
            max_size=1))
        _optional(draw, concept, "aliases", st.lists(st.sampled_from(NAMES), unique=True,
                                                     max_size=2))
        concepts.append(concept)
    doc = {"format_version": 1, "id": "Od", "concepts": concepts}
    if count > 1:
        relation = {"a": st.sampled_from(ids), "b": st.sampled_from(ids), "kind": KINDS}
        if draw(st.booleans()):
            relation["provenance"] = st.sampled_from(("declared", "inferred_case1"))
        _optional(draw, doc, "relations",
                  st.lists(st.fixed_dictionaries(relation), max_size=2))
    return doc


# Replacements: every JSON type, a bool where an int is expected, and
# strings that are no relation kind or provenance.
REPLACEMENTS = st.sampled_from(
    (None, True, False, 0, 1, 2, 1.5, "", "bogus", "part_of", "Service", [], ["x"], [1],
     {}, {"a": 1}, {"target": "Service"})
)


def _locations(value, found):
    """Every (container, key or index) in ``value``, parents before children."""
    if isinstance(value, dict):
        for key, item in value.items():
            found.append((value, key))
            _locations(item, found)
    elif isinstance(value, list):
        for index, item in enumerate(value):
            found.append((value, index))
            _locations(item, found)
    return found


@st.composite
def mutated(draw, documents):
    """A document with one value replaced or one key deleted, or none changed."""
    doc = draw(documents)
    locations = _locations(doc, [])
    if not locations or draw(st.integers(0, 9)) == 0:
        return doc
    container, key = draw(st.sampled_from(locations))
    if isinstance(container, dict) and draw(st.booleans()):
        del container[key]
    else:
        container[key] = draw(REPLACEMENTS)
    return doc


def _outcome(reader, path):
    try:
        return "value", reader(path)
    except SchemaViolation as exc:
        return type(exc).__name__, str(exc)


def _assert_same_outcome(doc, reader, oracle):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert _outcome(reader, path) == _outcome(oracle, path)


@settings(max_examples=400, deadline=None)
@given(mutated(component_documents()))
@example([])
@example({"format_version": True, "id": "CM1", "name": "n", "entities": []})
@example({"format_version": 1, "id": "CM1", "name": "n", "entities": [
    {"name": "A", "attributes": ["x", 1]}]})
@example({"format_version": 1, "id": "CM1", "name": "n", "entities": [
    {"name": "A", "associations": [{"target": "A"}]}]})
@example({"format_version": 1, "id": "CM1", "name": "n", "entities": [{"name": "A"}, {"name": "B"}],
          "relations": [{"a": "A", "b": "B", "kind": "part_of"}]})
@example({"format_version": 1, "id": "CM1", "name": "n", "entities": [{"name": "  "}]})
def test_component_reader_matches_per_field_oracle(doc):
    _assert_same_outcome(doc, parse_component, naive_parse_component)


@settings(max_examples=400, deadline=None)
@given(mutated(ontology_documents()))
@example({"format_version": 1, "id": "Od", "concepts": [
    {"id": "a", "term": "A"}, {"id": "b", "term": "B"}],
    "relations": [{"a": "a", "b": "b", "kind": "synonymy", "provenance": "bogus"}]})
@example({"format_version": 1, "id": "Od", "concepts": [
    {"id": "a", "term": "A", "aliases": [None]}]})
@example({"format_version": 1, "id": "Od", "concepts": ["a"]})
@example({"format_version": 1, "id": "Od", "concepts": [
    {"id": "a", "term": "A"}, {"id": "b", "term": "B"}],
    "relations": [{"a": "a", "b": "b", "kind": "bogus"}]})
@example({"format_version": 1, "id": "Od", "concepts": [{"id": "", "term": "A"}]})
def test_ontology_reader_matches_per_field_oracle(doc):
    _assert_same_outcome(doc, parse_ontology, naive_parse_ontology)
