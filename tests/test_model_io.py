"""Parsing, canonical serialization, and DOT export."""

import gc
import json
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ontomerge import (
    BusinessComponent,
    Cluster,
    Concept,
    Correspondence,
    EmptyTerm,
    EnrichmentRecord,
    Entity,
    Evidence,
    MalformedFile,
    Ontology,
    Relation,
    Report,
    SchemaViolation,
    expand_correspondences,
    component_to_ontology,
    export_dot,
    pair_space_of,
    parse_component,
    parse_ontology,
    parse_report,
    serialize_component,
    serialize_ontology,
    serialize_report,
    integrate,
)
from ontomerge import model_io
from ontomerge.evalgen import parse_truth
from ontomerge.model import PROVENANCES, RELATION_KINDS, SEMANTIC_KINDS

from .conftest import (
    make_cm1,
    make_composite_inputs,
    make_interleaved_inputs,
    make_support_ontology,
)
from .strategies import fractions01


def _write(tmp_path, name, payload):
    path = tmp_path / name
    if isinstance(payload, (dict, list)):
        payload = json.dumps(payload)
    if isinstance(payload, str):
        payload = payload.encode("utf-8")
    path.write_bytes(payload)
    return path


# ---------------------------------------------------------------------------
# component parsing


def test_parse_component_with_entities_and_associations(tmp_path, cm2):
    path = _write(tmp_path, "cm2.json", serialize_component(cm2).decode())
    parsed = parse_component(path)
    assert parsed == cm2
    assert len(parsed.entities) >= 3


def test_parse_component_empty_entities(tmp_path):
    path = _write(
        tmp_path, "empty.json",
        {"format_version": 1, "id": "CM0", "name": "vide", "entities": []},
    )
    parsed = parse_component(path)
    assert parsed.entities == ()


def test_dangling_association_target_names_the_culprit(tmp_path):
    path = _write(
        tmp_path, "bad.json",
        {
            "format_version": 1, "id": "CM1", "name": "x",
            "entities": [
                {"name": "Service",
                 "associations": [{"target": "X", "label": "vers"}]}
            ],
        },
    )
    with pytest.raises(SchemaViolation, match="'X'"):
        parse_component(path)


def test_composition_cycle_rejected(tmp_path):
    path = _write(
        tmp_path, "cycle.json",
        {
            "format_version": 1, "id": "CM1", "name": "x",
            "entities": [
                {"name": "A", "components": ["B"]},
                {"name": "B", "components": ["A"]},
            ],
        },
    )
    with pytest.raises(SchemaViolation, match="cycle"):
        parse_component(path)


def test_entity_composed_of_itself_rejected(tmp_path):
    path = _write(
        tmp_path, "self.json",
        {
            "format_version": 1, "id": "CM1", "name": "x",
            "entities": [{"name": "A", "components": ["A"]}],
        },
    )
    with pytest.raises(SchemaViolation, match="itself"):
        parse_component(path)


def test_blank_entity_name_rejected(tmp_path):
    path = _write(
        tmp_path, "blank.json",
        {"format_version": 1, "id": "CM1", "name": "x", "entities": [{"name": "  "}]},
    )
    with pytest.raises(SchemaViolation):
        parse_component(path)


def test_duplicate_entity_names_rejected(tmp_path):
    path = _write(
        tmp_path, "dup.json",
        {
            "format_version": 1, "id": "CM1", "name": "x",
            "entities": [{"name": "Service"}, {"name": "  service "}],
        },
    )
    with pytest.raises(SchemaViolation, match="duplicate entity name"):
        parse_component(path)


def test_missing_field_rejected(tmp_path):
    path = _write(tmp_path, "nofield.json", {"format_version": 1, "id": "CM1"})
    with pytest.raises(SchemaViolation, match="'name'"):
        parse_component(path)


def test_wrong_format_version_rejected(tmp_path):
    path = _write(
        tmp_path, "v2.json",
        {"format_version": 2, "id": "CM1", "name": "x", "entities": []},
    )
    with pytest.raises(SchemaViolation, match="format_version"):
        parse_component(path)


_MINIMAL_DOCUMENTS = {
    "component": (parse_component, {"id": "CM1", "name": "x", "entities": []}),
    "ontology": (parse_ontology, {"id": "Od", "concepts": []}),
    "report": (parse_report, {"correspondences": []}),
    "truth": (parse_truth, {"pairs": []}),
}


@pytest.mark.parametrize("version", [True, 1.0, "1"], ids=["true", "float", "string"])
@pytest.mark.parametrize("kind", sorted(_MINIMAL_DOCUMENTS))
def test_format_version_must_be_the_integer_one(tmp_path, kind, version):
    parse, fields = _MINIMAL_DOCUMENTS[kind]
    parse(_write(tmp_path, "v1.json", {"format_version": 1, **fields}))
    path = _write(tmp_path, "other.json", {"format_version": version, **fields})
    with pytest.raises(SchemaViolation, match="format_version"):
        parse(path)


_ROW = {"c1": "A#a", "c2": "B#b", "score": "0", "verdict": "Distinct",
        "evidence": {"kind": "syntactic"}}
_INJECTED = {"a": "Od#a", "b": "Od#b", "kind": "synonymy", "provenance": "inferred_case1"}


@pytest.mark.parametrize("kind, fields, error, message", [
    ("component", {"entities": [{"name": "  "}]}, EmptyTerm,
     "entities[0]: term is empty after normalization: '  '"),
    ("component", {"entities": [{"name": "b"}, {"name": "a", "components": ["a"]}]},
     SchemaViolation, "entities[1]: entity 'a' lists itself among its composition children"),
    ("ontology", {"concepts": [{"id": "", "term": "a"}]}, SchemaViolation,
     "concepts[0]: concept id must be nonempty"),
    ("report", {"correspondences": [_ROW, {**_ROW, "c2": "B#c", "verdict": "Bogus"}]},
     SchemaViolation, "correspondences[1]: unknown verdict 'Bogus'"),
    ("report", {"correspondences": [{**_ROW, "score": "3/2"}]}, SchemaViolation,
     "correspondences[0]: similarity score 3/2 out of [0, 1]"),
    ("report", {"correspondences": [{**_ROW, "evidence": {"kind": "magic"}}]}, SchemaViolation,
     "correspondences[0]: unknown evidence kind 'magic'"),
    ("report", {"correspondences": [], "enrichments": [
        {"pair": ["A#a", "B#b"], "injected": {**_INJECTED, "kind": "part_of"}}]},
     SchemaViolation, "enrichments[0]: only semantic relations can be injected, not 'part_of'"),
    ("report", {"correspondences": [], "clusters": [{"term": "t", "members": []}]},
     SchemaViolation, "clusters[0]: cluster must have at least one member"),
], ids=["blank-name", "self-child", "empty-concept-id", "verdict", "score", "evidence-kind",
        "injected-kind", "empty-cluster"])
def test_reader_errors_name_the_file_and_the_entry(tmp_path, kind, fields, error, message):
    parse, minimal = _MINIMAL_DOCUMENTS[kind]
    path = _write(tmp_path, "doc.json", {"format_version": 1, **minimal, **fields})
    with pytest.raises(error) as raised:
        parse(path)
    assert type(raised.value) is error
    assert str(raised.value) == f"{path}: {message}"


def test_broken_json_is_malformed(tmp_path):
    path = _write(tmp_path, "broken.json", "{not json")
    with pytest.raises(MalformedFile):
        parse_component(path)


def test_non_utf8_is_malformed(tmp_path):
    path = _write(tmp_path, "latin.json", b"\xff\xfe{}")
    with pytest.raises(MalformedFile):
        parse_component(path)


def test_missing_file_is_malformed(tmp_path):
    with pytest.raises(MalformedFile):
        parse_component(tmp_path / "nowhere.json")


def test_declared_relation_endpoints_checked(tmp_path):
    path = _write(
        tmp_path, "rel.json",
        {
            "format_version": 1, "id": "CM1", "name": "x",
            "entities": [{"name": "A"}],
            "relations": [{"a": "A", "b": "Zéro", "kind": "synonymy"}],
        },
    )
    with pytest.raises(SchemaViolation, match="Zéro"):
        parse_component(path)


# ---------------------------------------------------------------------------
# ontology parsing


def test_ontology_round_trip(tmp_path, support_od):
    path = _write(tmp_path, "od.json", serialize_ontology(support_od))
    assert parse_ontology(path) == support_od


def test_ontology_unknown_relation_endpoint(tmp_path):
    path = _write(
        tmp_path, "bad-od.json",
        {
            "format_version": 1, "id": "Od",
            "concepts": [{"id": "Od#a", "term": "a", "children": []}],
            "relations": [{"a": "Od#a", "b": "Od#ghost", "kind": "synonymy"}],
        },
    )
    with pytest.raises(SchemaViolation, match="Od#ghost"):
        parse_ontology(path)


def test_part_of_edges_are_synthesized_from_children(tmp_path):
    path = _write(
        tmp_path, "od.json",
        {
            "format_version": 1, "id": "Od",
            "concepts": [
                {"id": "Od#dossier", "term": "Dossier", "children": ["Od#patient"]},
                {"id": "Od#patient", "term": "Patient", "children": []},
            ],
            "relations": [],
        },
    )
    ontology = parse_ontology(path)
    assert [r.kind for r in ontology.relations] == ["part_of"]


def test_stray_part_of_edge_rejected(tmp_path):
    path = _write(
        tmp_path, "od.json",
        {
            "format_version": 1, "id": "Od",
            "concepts": [
                {"id": "Od#a", "term": "a", "children": []},
                {"id": "Od#b", "term": "b", "children": []},
            ],
            "relations": [{"a": "Od#a", "b": "Od#b", "kind": "part_of"}],
        },
    )
    with pytest.raises(SchemaViolation, match="part_of"):
        parse_ontology(path)


def test_synonymy_homonymy_conflict_rejected(tmp_path):
    path = _write(
        tmp_path, "od.json",
        {
            "format_version": 1, "id": "Od",
            "concepts": [
                {"id": "Od#a", "term": "a", "children": []},
                {"id": "Od#b", "term": "b", "children": []},
            ],
            "relations": [
                {"a": "Od#a", "b": "Od#b", "kind": "synonymy"},
                {"a": "Od#a", "b": "Od#b", "kind": "homonymy"},
            ],
        },
    )
    with pytest.raises(SchemaViolation, match="both"):
        parse_ontology(path)


def test_self_relation_rejected(tmp_path):
    path = _write(
        tmp_path, "od.json",
        {
            "format_version": 1, "id": "Od",
            "concepts": [{"id": "Od#a", "term": "a", "children": []}],
            "relations": [{"a": "Od#a", "b": "Od#a", "kind": "synonymy"}],
        },
    )
    with pytest.raises(SchemaViolation, match="itself"):
        parse_ontology(path)


def test_dangling_child_rejected(tmp_path):
    path = _write(
        tmp_path, "od.json",
        {
            "format_version": 1, "id": "Od",
            "concepts": [{"id": "Od#a", "term": "a", "children": ["Od#ghost"]}],
            "relations": [],
        },
    )
    with pytest.raises(SchemaViolation, match="Od#ghost"):
        parse_ontology(path)


# ---------------------------------------------------------------------------
# determinism and round trips


def _dumps_oracle(value):
    return json.dumps(value, ensure_ascii=False, indent=2, sort_keys=True)


# Strings mix what JSON escapes, a line separator it leaves raw, a
# formatting character, and non-ASCII and astral characters.
_json_text = st.text(
    st.sampled_from(['"', "\\", "\x00", "\x1f", "\n", "\u2028", "%", "é", "中", "\U0001f600",
                     "a"]),
    max_size=5,
)


def _json_values(depth):
    scalars = st.none() | st.booleans() | st.integers() | _json_text
    if not depth:
        return scalars
    inner = _json_values(depth - 1)
    return scalars | st.lists(inner, max_size=3) | st.dictionaries(_json_text, inner, max_size=3)


@st.composite
def _record_lists(draw):
    """Several dicts on one key set, as the serializers write them, and at
    times one dict on another key set among them.  A key's values are
    strings, lists of strings or any JSON values."""
    keys = draw(st.lists(_json_text, max_size=4, unique=True))
    columns = st.sampled_from([_json_values(2), _json_text, st.lists(_json_text, max_size=3)])
    records = draw(st.lists(
        st.fixed_dictionaries({key: draw(columns) for key in keys}), min_size=2, max_size=4))
    if draw(st.booleans()):
        odd = draw(st.dictionaries(_json_text, _json_values(1), max_size=3))
        records.insert(draw(st.integers(0, len(records))), odd)
    return records


@settings(max_examples=300, deadline=None)
@given(_json_values(4) | _record_lists() | st.lists(_record_lists(), max_size=2),
       st.integers(0, 3))
@example({}, 0)
@example({"a": [], "b": {}, "c": [[{}]]}, 2)
@example([{"b": 1, "a": [{"y": "1", "x": None}, {"x": 2, "y": "3"}]}, {"a": [], "b": 2}], 1)
@example([{"a": 1, "b": 2}, {"a": 1, "c": 2}], 0)
@example([[{}, {}]], 1)
@example([{"%s": ["x", "%"], "%%": "y"}, {"%s": [], "%%": "%d"}], 1)
def test_render_matches_json_dumps(value, depth):
    text = _dumps_oracle(value)
    assert model_io._render(value, "") == text
    # the re-indent that placed a nested value before the renderer existed
    assert model_io._render(value, "  " * depth) == text.replace("\n", "\n" + "  " * depth)


def test_integrate_and_serializers_leave_no_cyclic_garbage():
    components, od = make_composite_inputs()
    gc.collect()
    gc.disable()
    try:
        merged, enriched, report = integrate(components, od)
        serialize_component(merged)
        serialize_ontology(enriched)
        serialize_report(report)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_serializers_are_deterministic(cm1, support_od):
    assert serialize_component(cm1) == serialize_component(make_cm1())
    assert serialize_ontology(support_od) == serialize_ontology(make_support_ontology())


def test_component_round_trip(tmp_path, cm1, cm2):
    for index, component in enumerate((cm1, cm2)):
        path = _write(tmp_path, f"c{index}.json", serialize_component(component))
        assert parse_component(path) == component


def test_report_round_trip(tmp_path, cm1, cm2, support_od):
    _, _, report = integrate([cm1, cm2], support_od)
    payload = serialize_report(report)
    path = _write(tmp_path, "report.json", payload)
    parsed = parse_report(path)
    assert serialize_report(parsed) == payload


def test_report_clusters_round_trip_in_memory_order(tmp_path):
    # raw "Banana" sorts before "apple", but normalized it sorts after it
    components = [
        BusinessComponent(id=cid, name=cid, entities=tuple(
            Entity(name=name) for name in ("apple", "Banana", "cherry")
        ))
        for cid in ("CM1", "CM2")
    ]
    _, _, report = integrate(components, Ontology("Od"))
    assert [cl.term for cl in report.clusters] == ["Banana", "apple", "cherry"]
    path = _write(tmp_path, "report.json", serialize_report(report))
    explicit = Report(expand_correspondences(report), report.enrichments, report.clusters,
                      report.warnings, pair_space=())
    assert parse_report(path) == explicit


def naive_full_list(report):
    """Every pair a report stands for, sorted by pair.

    A sparse report's space is walked source pair by source pair, and each
    pair it does not list is filled in as (0, syntactic, Distinct).
    """
    if not report.pair_space:
        return sorted(report.correspondences, key=lambda c: c.pair)
    scored = {c.pair: c for c in report.correspondences}
    assert len(scored) == len(report.correspondences)
    full = []
    for i, left in enumerate(report.pair_space):
        for right in report.pair_space[i + 1:]:
            for c1 in left:
                for c2 in right:
                    trivial = Correspondence(c1, c2, Fraction(0), "Distinct", Evidence("syntactic"))
                    full.append(scored.pop((c1, c2), trivial))
    assert not scored
    return sorted(full, key=lambda c: c.pair)


def _dumps_report_oracle(report):
    """The report as one dict rendered by ``json.dumps``: what the writer must equal."""
    document = {
        "format_version": model_io.FORMAT_VERSION,
        "correspondences": [
            {
                "c1": corr.c1,
                "c2": corr.c2,
                "score": str(corr.score),
                "verdict": corr.verdict,
                "evidence": {
                    "kind": corr.evidence.kind,
                    "relations_used": [
                        r.to_dict() for r in corr.evidence.relations_used
                    ],
                },
            }
            for corr in naive_full_list(report)
        ],
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
    return (_dumps_oracle(document) + "\n").encode("utf-8")


# Ids mix the characters JSON escapes, a line separator it leaves raw and
# non-ASCII text; aliases must also stay nonblank after normalization.
ids = st.text(
    st.sampled_from(['"', "\\", "\x00", "\x1f", "\n", "\t", "\u2028", "é", "中", "a", "#", " "]),
    min_size=1, max_size=6,
)
names = ids.filter(lambda s: s.strip())


def _relations(kinds, provenances):
    return st.tuples(ids, ids, st.sampled_from(kinds), st.sampled_from(provenances)).filter(
        lambda t: t[0] != t[1]
    ).map(lambda t: Relation(*t))


relations = _relations(RELATION_KINDS, PROVENANCES)


# (verdict, score) pairs each evidence kind admits; None draws any score.
VERDICTS_OF_KIND = {
    "syntactic": [("Distinct", None), ("Distinct", 1), ("Identical", None), ("Identical", 1)],
    "od_synonymy": [("Synonym", 1), ("Distinct", 1)],
    "enriched": [("Synonym", 1), ("Homonym", 0), ("Distinct", 1), ("Distinct", 0)],
    "od_homonymy": [("Homonym", 0), ("Distinct", 0)],
}
evidences = st.sampled_from(sorted(VERDICTS_OF_KIND)).flatmap(
    lambda kind: st.lists(
        relations, min_size=1 if kind.startswith("od_") else 0, max_size=3
    ).map(lambda used: Evidence(kind, tuple(used)))
)


@st.composite
def correspondences(draw, c1s, evidence, c2s=ids):
    chosen = draw(evidence)
    verdict, score = draw(st.sampled_from(VERDICTS_OF_KIND[chosen.kind]))
    return Correspondence(
        c1=draw(c1s), c2=draw(c2s),
        score=draw(fractions01) if score is None else Fraction(score),
        verdict=verdict, evidence=chosen,
    )


records = st.builds(
    EnrichmentRecord,
    injected=_relations(SEMANTIC_KINDS, PROVENANCES[1:]),
    evidence=st.lists(relations, max_size=3).map(tuple),
    pair=st.tuples(ids, ids),
)
clusters = st.builds(
    Cluster,
    term=ids,
    members=st.lists(ids, min_size=1, max_size=3).map(tuple),
    aliases=st.lists(names, max_size=2).map(tuple),
)


@st.composite
def reports(draw):
    """A report whose lists are already in the order the serializer writes."""
    # small pools, so one c1 and one evidence recur with other scores and verdicts
    c1s = st.sampled_from(draw(st.lists(ids, min_size=1, max_size=3)))
    shared = st.sampled_from(draw(st.lists(evidences, min_size=1, max_size=3)))
    return Report(
        correspondences=sorted(
            draw(st.lists(
                correspondences(c1s, shared), max_size=8, unique_by=lambda c: c.pair
            )),
            key=lambda c: c.pair,
        ),
        enrichments=sorted(
            draw(st.lists(records, max_size=3)), key=lambda r: (r.pair, r.injected)
        ),
        clusters=sorted(
            draw(st.lists(clusters, max_size=3)), key=lambda cl: (cl.term, cl.members)
        ),
        warnings=sorted(draw(st.lists(ids, max_size=3))),
    )


_SYNTACTIC = Evidence("syntactic")


@settings(max_examples=300, deadline=None)
@given(reports())
@example(Report())
@example(Report(correspondences=[
    Correspondence("a", "b", Fraction(1), "Identical", _SYNTACTIC),
    Correspondence("a", "c", Fraction(1), "Distinct", _SYNTACTIC),
    Correspondence("a", "d", Fraction(1, 2), "Distinct", _SYNTACTIC),
]))
@example(Report(  # ids that end in a quote or hold an empty JSON string's text
    correspondences=[
        Correspondence('""', 'a"', Fraction(1), "Synonym", Evidence(
            "od_synonymy", (Relation('x""', '"', "synonymy"),))),
        Correspondence('""', 'b""c', Fraction(1, 2), "Distinct", _SYNTACTIC),
    ],
    warnings=[""],
))
def test_report_writer_matches_dumps_oracle(report):
    payload = serialize_report(report)
    assert payload == _dumps_report_oracle(report)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "report.json"
        path.write_bytes(payload)
        assert parse_report(path) == report


# Source ids whose concept ids interleave: "CM 2#x" < "CM!#x" < "CM#x".
SOURCE_IDS = ["CM", "CM 2", "CM!", "CM#a"]


@st.composite
def sparse_reports(draw):
    """A sparse report: a pair space over 2-3 sources and some of its pairs."""
    source_ids = sorted(draw(st.lists(
        st.sampled_from(SOURCE_IDS), min_size=2, max_size=3, unique=True
    )))
    seen = set()
    space = []
    for source_id in source_ids:
        concept_ids = {f"{source_id}#{name}" for name in draw(st.lists(names, max_size=4))}
        space.append(tuple(sorted(concept_ids - seen)))  # unique across sources
        seen |= concept_ids
    pairs = [
        (c1, c2)
        for i, left in enumerate(space)
        for right in space[i + 1:]
        for c1 in left
        for c2 in right
    ]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=8)) if pairs else []
    shared = st.sampled_from(draw(st.lists(evidences, min_size=1, max_size=3)))
    return Report(
        correspondences=[
            draw(correspondences(st.just(c1), shared, st.just(c2))) for c1, c2 in chosen
        ],
        warnings=sorted(draw(st.lists(ids, max_size=2))),
        pair_space=tuple(space),
    )


def _listed(*pairs):
    return [
        Correspondence(c1, c2, Fraction(1, k + 2), "Distinct", _SYNTACTIC)
        for k, (c1, c2) in enumerate(pairs)
    ]


@settings(max_examples=200, deadline=None)
@given(sparse_reports())
@example(Report(  # the last source has no concepts: the rows of "CM 2" write nothing
    correspondences=_listed(("CM#a", "CM 2#a")),
    pair_space=(("CM#a", "CM#b"), ("CM 2#a",), ()),
))
@example(Report(  # "CM#a" lists every one of its pairs
    correspondences=_listed(("CM#a", "CM 2#a"), ("CM#a", "CM 2#b"), ("CM#b", "CM 2#b")),
    pair_space=(("CM#a", "CM#b"), ("CM 2#a", "CM 2#b")),
))
@example(Report(  # "CM#a" lists only its first and its last partner
    correspondences=_listed(("CM#a", "CM 2#c"), ("CM#a", "CM 2#a")),
    pair_space=(("CM#a",), ("CM 2#a", "CM 2#b", "CM 2#c")),
))
@example(Report(  # ids that end in a quote or hold an empty JSON string's text
    correspondences=[Correspondence('CM#""', 'CM 2#a"', Fraction(0), "Homonym", Evidence(
        "enriched", (Relation('""', 'a"', "homonymy", "inferred_case2"),)))],
    warnings=[""],
    pair_space=(('CM#""', 'CM#x"'), ('CM 2#""', 'CM 2#a"')),
))
def test_sparse_report_writer_matches_dumps_oracle(report):
    payload = serialize_report(report)
    assert payload == _dumps_report_oracle(report)
    assert expand_correspondences(report) == naive_full_list(report)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "report.json"
        path.write_bytes(payload)
        parsed = parse_report(path)
    assert parsed == Report(naive_full_list(report), report.enrichments, report.clusters,
                            report.warnings, pair_space=())


def test_integrate_report_bytes_with_interleaved_source_ids():
    components, od = make_interleaved_inputs()
    _, _, report = integrate(components, od)
    assert report.pair_space == pair_space_of(
        component_to_ontology(c) for c in components
    )
    full = naive_full_list(report)
    assert len(report.correspondences) < len(full) == 4 * 4 + 4 * 3 + 4 * 3
    assert [c.pair for c in full][:2] == [("CM 2#client", "CM!#client"),
                                           ("CM 2#client", "CM!#contrat")]
    assert serialize_report(report) == _dumps_report_oracle(report)


_TRIVIAL = Correspondence("CM#a", "CM 2#b", Fraction(0), "Distinct", Evidence("syntactic"))


@pytest.mark.parametrize("pair, message", [
    (("CM#a", "CM 2#b"), "listed twice"),
    (("CM#a", "CM 2#zz"), "outside the report's pair space"),
    (("CM#zz", "CM 2#b"), "outside the report's pair space"),
    (("CM 2#b", "CM#a"), "does not point from an earlier source to a later one"),
    (("CM#a", "CM#c"), "does not point from an earlier source to a later one"),
], ids=["duplicate", "unknown-c2", "unknown-c1", "backward", "same-source"])
def test_sparse_report_rejects_stray_pairs(pair, message):
    stray = Correspondence(*pair, _TRIVIAL.score, _TRIVIAL.verdict, _TRIVIAL.evidence)
    report = Report(
        correspondences=[_TRIVIAL, stray],
        pair_space=(("CM#a", "CM#c"), ("CM 2#b",)),
    )
    for consume in (serialize_report, expand_correspondences):
        with pytest.raises(SchemaViolation, match=message):
            consume(report)


def test_metadata_survives_ontology_round_trip(tmp_path, cm1):
    # concepts carry attributes/associations through files untouched
    from ontomerge import component_to_ontology

    ontology = component_to_ontology(cm1)
    path = _write(tmp_path, "ocm1.json", serialize_ontology(ontology))
    assert parse_ontology(path) == ontology


# ---------------------------------------------------------------------------
# DOT export


def test_dot_empty_ontology():
    payload = export_dot(Ontology("Od")).decode()
    assert payload.startswith('digraph "Od"')
    assert "label=" not in payload


def test_dot_two_concepts_one_synonymy():
    ontology = Ontology(
        "Od",
        concepts=[Concept(id="Od#a", term="Alpha"), Concept(id="Od#b", term="Bravo")],
        relations=[Relation("Od#a", "Od#b", "synonymy")],
    )
    payload = export_dot(ontology).decode()
    assert payload.count("[label=") == 3  # two nodes + one edge
    assert 'label="synonymy"' in payload
    assert "dir=none" in payload


def test_dot_node_count_matches_concepts(support_od):
    payload = export_dot(support_od).decode()
    node_lines = [line for line in payload.splitlines() if "->" not in line and "label=" in line]
    assert len(node_lines) == len(support_od.concepts)
