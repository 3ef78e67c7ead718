"""Exit codes, output files, and the no-partial-output guarantee."""

import argparse
import functools
import gc
import hashlib
import importlib.util
import json
import sys
import tracemalloc
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

from ontomerge import (
    BusinessComponent,
    Concept,
    Correspondence,
    Entity,
    Evidence,
    Ontology,
    Relation,
    Report,
    SchemaViolation,
    integrate,
    model_io,
)
from ontomerge import cli
from ontomerge.cli import _write_outputs, main
from ontomerge.evalgen import ScenarioSpec, generate_scenario

from .conftest import (
    make_composite_inputs,
    make_conflicting_components,
    make_contradictory_od,
    make_interleaved_inputs,
    make_wide_tied_inputs,
)


def _integrate_args(paths, out_dir):
    return [
        "integrate",
        "--component", str(paths["cm1"]),
        "--component", str(paths["cm2"]),
        "--ontology", str(paths["od"]),
        "--out-component", str(out_dir / "cmr.json"),
        "--out-ontology", str(out_dir / "od2.json"),
        "--report", str(out_dir / "report.json"),
    ]


def test_integrate_writes_three_files(tmp_path, scenario_files, capsys):
    code = main(_integrate_args(scenario_files, tmp_path))
    assert code == 0
    for name in ("cmr.json", "od2.json", "report.json"):
        assert (tmp_path / name).exists()
    merged = model_io.parse_component(tmp_path / "cmr.json")
    assert len(merged.concepts) == 3
    report = model_io.parse_report(tmp_path / "report.json")
    assert {c.verdict for c in report.correspondences} == {
        "Synonym", "Homonym", "Distinct",
    }


def test_missing_ontology_flag_is_usage_error(tmp_path, scenario_files, capsys):
    code = main([
        "integrate",
        "--component", str(scenario_files["cm1"]),
        "--component", str(scenario_files["cm2"]),
        "--out-component", str(tmp_path / "a.json"),
        "--out-ontology", str(tmp_path / "b.json"),
        "--report", str(tmp_path / "c.json"),
    ])
    assert code == 1
    assert "usage" in capsys.readouterr().err


def test_single_component_is_usage_error(tmp_path, scenario_files, capsys):
    code = main([
        "integrate",
        "--component", str(scenario_files["cm1"]),
        "--ontology", str(scenario_files["od"]),
        "--out-component", str(tmp_path / "a.json"),
        "--out-ontology", str(tmp_path / "b.json"),
        "--report", str(tmp_path / "c.json"),
    ])
    assert code == 1


def test_duplicate_output_paths_rejected(tmp_path, scenario_files, capsys):
    # One file named as is, through "..", and through a symlinked directory.
    out = tmp_path / "out"
    (out / "sub").mkdir(parents=True)
    (out / "link").symlink_to(out, target_is_directory=True)
    inputs = [
        "--component", str(scenario_files["cm1"]),
        "--component", str(scenario_files["cm2"]),
        "--ontology", str(scenario_files["od"]),
    ]
    same = out / "same.json"
    for alias in (same, out / "sub" / ".." / "same.json", out / "link" / "same.json"):
        for command in (
            ["integrate", "--out-component", str(same),
             "--out-ontology", str(out / "other.json"), "--report", str(alias)],
            ["align", "--report", str(same), "--out-ontology", str(alias)],
        ):
            assert main(command[:1] + inputs + command[1:]) == 1, (command, alias)
            assert sorted(path.name for path in out.iterdir()) == ["link", "sub"]
            assert not any((out / "sub").iterdir())


def test_bad_tau_is_usage_error(tmp_path, scenario_files, capsys):
    args = _integrate_args(scenario_files, tmp_path) + ["--tau", "0"]
    assert main(args) == 1


def _outcome(argv, capsys):
    """(exit code, stdout, stderr) of one ``main`` call; --help exits by SystemExit."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", [
    ["--help"], [], ["bogus"], ["--bogus", "gen"],
    *[[command, "--help"] for command in ("integrate", "align", "gen", "eval", "export-dot")],
    ["integrate", "--component", "a.json", "--ontology", "od.json"],
    ["align", "--component", "a.json"], ["gen"], ["eval", "--report", "r.json"], ["export-dot"],
    ["integrate", "--tau", "2"], ["gen", "--out-dir", "out", "--concepts", "many"],
    ["integrate", "--unknown"],
])
def test_cli_matches_the_parser_of_every_command(argv, capsys, monkeypatch):
    # The parser main builds for argv against the one built for no command,
    # which carries every command's arguments.
    got = _outcome(argv, capsys)
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda argv: full(()))
    assert _outcome(argv, capsys) == got
    assert got[0] in (0, 1)


def test_integrate_builds_no_other_command(tmp_path, scenario_files, monkeypatch):
    built = []
    full = cli.build_parser

    def spy(argv):
        built.append(full(argv))
        return built[-1]

    monkeypatch.setattr(cli, "build_parser", spy)
    assert main(_integrate_args(scenario_files, tmp_path)) == 0
    [parser] = built
    [commands] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(commands.choices) == ["integrate"]
    options = {o for a in commands.choices["integrate"]._actions for o in a.option_strings}
    assert options == {"-h", "--help", "--component", "--ontology", "--tau",
                       "--out-component", "--out-ontology", "--report"}


def test_broken_input_is_schema_error(tmp_path, scenario_files, capsys):
    scenario_files["cm1"].write_text("{broken", encoding="utf-8")
    code = main(_integrate_args(scenario_files, tmp_path))
    assert code == 2
    assert not (tmp_path / "cmr.json").exists()


def test_collision_is_exit_three(tmp_path, capsys):
    left, right = make_conflicting_components()
    od = make_contradictory_od()
    paths = {
        "cm1": tmp_path / "l.json",
        "cm2": tmp_path / "r.json",
        "od": tmp_path / "od.json",
    }
    paths["cm1"].write_bytes(model_io.serialize_component(left))
    paths["cm2"].write_bytes(model_io.serialize_component(right))
    paths["od"].write_bytes(model_io.serialize_ontology(od))
    code = main(_integrate_args(paths, tmp_path))
    assert code == 3
    for name in ("cmr.json", "od2.json", "report.json"):
        assert not (tmp_path / name).exists()


def test_cycle_made_by_merging_is_schema_error(tmp_path, capsys):
    # each source is acyclic; the synonymies fold Dossier ⊃ Patient and
    # Malade ⊃ Fichier into two clusters that contain each other
    left = BusinessComponent(id="CM1", name="left", entities=(
        Entity(name="Dossier", components=("Patient",)), Entity(name="Patient"),
    ))
    right = BusinessComponent(id="CM2", name="right", entities=(
        Entity(name="Malade", components=("Fichier",)), Entity(name="Fichier"),
    ))
    od = Ontology("Od", concepts=[
        Concept(id=f"Od#{term}", term=term)
        for term in ("dossier", "fichier", "patient", "malade")
    ], relations=[
        Relation("Od#dossier", "Od#fichier", "synonymy"),
        Relation("Od#patient", "Od#malade", "synonymy"),
    ])
    paths = {"cm1": tmp_path / "l.json", "cm2": tmp_path / "r.json", "od": tmp_path / "od.json"}
    paths["cm1"].write_bytes(model_io.serialize_component(left))
    paths["cm2"].write_bytes(model_io.serialize_component(right))
    paths["od"].write_bytes(model_io.serialize_ontology(od))
    code = main(_integrate_args(paths, tmp_path))
    assert (code, capsys.readouterr().err) == (
        2, "error: composition cycle: CMr#dossier -> CMr#malade -> CMr#dossier\n"
    )
    for name in ("cmr.json", "od2.json", "report.json"):
        assert not (tmp_path / name).exists()


def test_concept_id_shared_by_two_components_is_schema_error(tmp_path, capsys):
    # entity "b#c" of component A and entity "c" of component A#b both get id A#b#c
    left = BusinessComponent(id="A", name="A", entities=(Entity("b#c", ("x",)),))
    right = BusinessComponent(id="A#b", name="A b", entities=(Entity("c", ("y",)),))
    paths = {
        "cm1": tmp_path / "l.json",
        "cm2": tmp_path / "r.json",
        "od": tmp_path / "od.json",
    }
    paths["cm1"].write_bytes(model_io.serialize_component(left))
    paths["cm2"].write_bytes(model_io.serialize_component(right))
    paths["od"].write_bytes(model_io.serialize_ontology(Ontology("Od")))
    code = main(_integrate_args(paths, tmp_path))
    assert code == 2
    assert "'A#b#c'" in capsys.readouterr().err
    for name in ("cmr.json", "od2.json", "report.json"):
        assert not (tmp_path / name).exists()


def test_unwritable_output_leaves_no_partial_files(tmp_path, scenario_files, capsys):
    out = tmp_path / "ok"
    out.mkdir()
    args = [
        "integrate",
        "--component", str(scenario_files["cm1"]),
        "--component", str(scenario_files["cm2"]),
        "--ontology", str(scenario_files["od"]),
        "--out-component", str(out / "cmr.json"),
        "--out-ontology", str(tmp_path / "missing-dir" / "od2.json"),
        "--report", str(out / "report.json"),
    ]
    code = main(args)
    assert code != 0
    assert list(out.iterdir()) == []  # nothing written, not even temporaries


@pytest.mark.parametrize("command", ["integrate", "align"])
def test_directory_target_leaves_no_partial_files(tmp_path, scenario_files, capsys, command):
    # the report path is an existing directory: only the last rename would fail
    out = tmp_path / "ok"
    out.mkdir()
    (out / "report").mkdir()
    args = [
        command,
        "--component", str(scenario_files["cm1"]),
        "--component", str(scenario_files["cm2"]),
        "--ontology", str(scenario_files["od"]),
        "--out-ontology", str(out / "od2.json"),
        "--report", str(out / "report"),
    ]
    if command == "integrate":
        args += ["--out-component", str(out / "cmr.json")]
    assert main(args) == 1
    assert [path.name for path in out.iterdir()] == ["report"]  # no output, no temporary
    assert list((out / "report").iterdir()) == []


_DISTINCT = Correspondence("CM#a", "CM 2#b", Fraction(0), "Distinct", Evidence("syntactic"))


@pytest.mark.parametrize("report, error", [
    (Report(correspondences=[_DISTINCT, _DISTINCT], pair_space=(("CM#a",), ("CM 2#b",))),
     SchemaViolation),  # pair_rows rejects the pair listed twice
    (Report(correspondences=[Correspondence("CM#\ud800", _DISTINCT.c2, _DISTINCT.score,
                                            _DISTINCT.verdict, _DISTINCT.evidence)]),
     UnicodeEncodeError),
], ids=["doubled-pair", "lone-surrogate"])
def test_failing_chunk_iterator_leaves_no_partial_files(tmp_path, report, error):
    written = []

    def chunks():
        for chunk in model_io.report_chunks(report):
            written.append(chunk)
            yield chunk

    outputs = {
        str(tmp_path / "a.json"): [b"{}\n"],
        str(tmp_path / "b.json"): chunks(),
        str(tmp_path / "c.json"): [b"{}\n"],
    }
    with pytest.raises(error):
        _write_outputs(outputs)
    assert written  # the second output failed after its first chunk
    assert list(tmp_path.iterdir()) == []  # no output, no temporary


def test_written_output_is_dropped_before_the_next_renders(tmp_path):
    def first():
        yield b"{}\n"

    def second():
        alive.append(first_ref() is not None)
        yield b"{}\n"

    alive = []
    outputs = {str(tmp_path / "a.json"): first(), str(tmp_path / "b.json"): second()}
    first_ref = weakref.ref(outputs[str(tmp_path / "a.json")])
    _write_outputs(outputs)
    assert alive == [False]
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes() == b"{}\n"


def test_integrate_frees_the_enriched_ontology_before_the_report(
        tmp_path, scenario_files, monkeypatch):
    refs, alive = [], []
    ontology_chunks, report_chunks = model_io.ontology_chunks, model_io.report_chunks

    def spy_ontology(ontology):
        refs.append(weakref.ref(ontology))
        return ontology_chunks(ontology)

    def spy_report(report):
        alive.append([ref() is not None for ref in refs])
        yield from report_chunks(report)

    monkeypatch.setattr(model_io, "ontology_chunks", spy_ontology)
    monkeypatch.setattr(model_io, "report_chunks", spy_report)
    assert main(_integrate_args(scenario_files, tmp_path)) == 0
    assert alive == [[False]]


def test_integrate_peak_memory_is_below_half_the_report(tmp_path):
    # a sparse scenario: a 2.8 MiB report of mostly unlisted Distinct pairs
    components, od, _ = generate_scenario(ScenarioSpec(240, 4, 2, 1, rng_seed=5))
    paths = {"cm1": tmp_path / "cm1.json", "cm2": tmp_path / "cm2.json",
             "od": tmp_path / "od.json"}
    paths["cm1"].write_bytes(model_io.serialize_component(components[0]))
    paths["cm2"].write_bytes(model_io.serialize_component(components[1]))
    paths["od"].write_bytes(model_io.serialize_ontology(od))
    out = tmp_path / "out"
    out.mkdir()
    tracemalloc.start()
    try:
        code = main(_integrate_args(paths, out))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    report_size = (out / "report.json").stat().st_size
    assert report_size >= 2 * 2**20
    assert peak < report_size / 2


def test_writing_the_outputs_adds_under_a_tenth_to_the_integrate_peak(tmp_path):
    # the outputs are streamed record by record, so writing them stays below
    # the peak of parsing the inputs and integrating them (4 % above it when
    # this test was written; 25 % when the merged component was rendered whole)
    components, od, _ = generate_scenario(ScenarioSpec(320, 8, 2, 1, 1))
    paths = {"cm1": tmp_path / "cm1.json", "cm2": tmp_path / "cm2.json",
             "od": tmp_path / "od.json"}
    paths["cm1"].write_bytes(model_io.serialize_component(components[0]))
    paths["cm2"].write_bytes(model_io.serialize_component(components[1]))
    paths["od"].write_bytes(model_io.serialize_ontology(od))
    del components, od
    args = _integrate_args(paths, tmp_path)
    assert main(args) == 0  # first-call allocations are no run's

    def peak(run):
        """The least of three traced runs, each after a full collection: a
        collection that falls inside one run, or not, moves its peak."""
        peaks = []
        for _ in range(3):
            gc.collect()
            tracemalloc.start()
            try:
                run()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return min(peaks)

    integrate_peak = peak(lambda: integrate(
        [model_io.parse_component(paths["cm1"]), model_io.parse_component(paths["cm2"])],
        model_io.parse_ontology(paths["od"])))
    assert peak(lambda: main(args)) < 1.1 * integrate_peak


def test_repeated_runs_are_byte_identical(tmp_path, scenario_files):
    first = tmp_path / "first"
    second = tmp_path / "second"
    first.mkdir(), second.mkdir()
    assert main(_integrate_args(scenario_files, first)) == 0
    assert main(_integrate_args(scenario_files, second)) == 0
    for name in ("cmr.json", "od2.json", "report.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _pinned_inputs(name, tmp_path):
    """(component paths, ontology path) of one pinned input."""
    if name == "fixtures":
        return [FIXTURES / "cm1.json", FIXTURES / "cm2.json"], FIXTURES / "od.json"
    if name == "generated":  # cases 1, 2 and 3 all inject at this coverage
        components, od, _ = generate_scenario(ScenarioSpec(60, 10, 4, 0.5, rng_seed=3))
    elif name == "composite":
        components, od = make_composite_inputs()
    elif name == "wide_tied":  # case 3 at width 12 with 32 tied pairings
        components, od = make_wide_tied_inputs()
    else:
        components, od = make_interleaved_inputs()
    inputs = tmp_path / "in"
    inputs.mkdir()
    paths = []
    for index, component in enumerate(components):
        paths.append(inputs / f"cm{index}.json")
        paths[-1].write_bytes(model_io.serialize_component(component))
    (inputs / "od.json").write_bytes(model_io.serialize_ontology(od))
    return paths, inputs / "od.json"


# sha256 of ``integrate`` outputs per input; any change is a change of output
PINNED_DIGESTS = {
    "composite": {
        "cmr.json": "0b88c17475bd7f29049facd89494fc505f4ce0fcaac582bb16992394894cca82",
        "od2.json": "12fb2652af6f4f544f6588e68aac7e1ac1e47997c13aef78d567d6519f5f4c53",
        "report.json": "a4d35722627a0d4f3573072979fdc5ec531d517dbec279dce5af97b6309c47ff",
    },
    "fixtures": {
        "cmr.json": "daf03e7d2a3c9d7b673378a8a293f5fde4e2626acec09879d3f6d4e39fc9d1f1",
        "od2.json": "250de1daa76d8765d41884746242b506f55a70d062c34ffcc9ecb22be32abe93",
        "report.json": "1df63b427734f2b1a571afeb71008a0329aef594ce5b1d36966b855d34c01147",
    },
    "generated": {
        "cmr.json": "b3cc6a50ac0724aab270322a72e5d55dc51a7553f109bceb2b38ea2f4c968b40",
        "od2.json": "5a09e6693de4405eea3801e11536b7ea50c32d354f92509e9242d32ae2da9dbb",
        "report.json": "aefcd0f7ed370ec1a194f4371ea63195c4087f2508fa2de0df3e3d0784ac4917",
    },
    "interleaved": {
        "cmr.json": "a60a928a502ba8768873f4a4e7c0b8995e5f6e4b566a81bc365d474d9c8f4dbb",
        "od2.json": "cd30a3ef43a0b6ebff9ce114352096d1fb89c61d3dd274f0c7d40bf6a3e2bc72",
        "report.json": "5896fd685cfd25d95212496fd8e21fa38e5b81fc789e59a5cef200f994faf8cd",
    },
    "wide_tied": {
        "cmr.json": "fb12b5cb9c90610c0fcc1abee18ec3846300b803f9d010dc4532bf851ca07f87",
        "od2.json": "6af385ebd77eb5f8bdd2e265c80407f5b74839778d57e0dcdafa185b9f6a622f",
        "report.json": "84c3fb9a53400db95acd42f137438dd5aa4283223812113b7282a2b4b7f1b66d",
    },
}


@pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
def test_integrate_outputs_on_fixtures_are_pinned(tmp_path, name):
    components, od = _pinned_inputs(name, tmp_path)
    args = [
        "integrate",
        *(arg for path in components for arg in ("--component", str(path))),
        "--ontology", str(od),
        "--out-component", str(tmp_path / "cmr.json"),
        "--out-ontology", str(tmp_path / "od2.json"),
        "--report", str(tmp_path / "report.json"),
    ]
    assert main(args) == 0
    digests = {
        output: hashlib.sha256((tmp_path / output).read_bytes()).hexdigest()
        for output in PINNED_DIGESTS[name]
    }
    assert digests == PINNED_DIGESTS[name]
    # the report the CLI streams equals the library's serialize_report
    _, _, report = integrate(
        [model_io.parse_component(path) for path in components], model_io.parse_ontology(od)
    )
    payload = model_io.serialize_report(report)
    assert payload == b"".join(model_io.report_chunks(report))
    assert (tmp_path / "report.json").read_bytes() == payload


BENCH = Path(__file__).resolve().parent.parent / "bench"

# sha256 of (cmr, od2, report) for each bench workload and seed
BENCH_DIGESTS = {
    ("composite_wide", 1): (
        "abdfe84271a94114d8681b347798258cbd3af87481fe8ba0f1d38eddde7c0c6a",
        "cede3bb95b30664b5e676e9e315cfbb308027a4af095b66388a38252ebf2139f",
        "ccb9cbe167f0ca7d20823fa81b48eb7a75edb399b374a57d4990f08e48af6738",
    ),
    ("composite_wide", 2): (
        "11de0893ae299a0ceb4bec3fbba4079fcc9490016a22d5487dc8c0ad74ef6c4b",
        "06c36d78d4d3498bb7ea0ebfab2b8faaf1e21a3b467456ab2730ac1969790b7d",
        "6109caf00c8abe85d279da617e63ee31bb0d6105beea95f6d0f81ac876c8fd77",
    ),
    ("composite_wide", 3): (
        "a80e0f4379bb95c15e43fb8aa40e2af397d72b16667e09c1fc99a5351989b2f6",
        "abbbd6af6373e355fa5232e301d6d2112cdc08170ae9e912d5bb5a1b86e44024",
        "aaafee027568b4cc8a45427d10eb66dee4ad4f9c648089815af41840aeace734",
    ),
    ("dense_declared", 1): (
        "f5b2d36e6d396ccce499a23db604405ebf038ea7ca6a6631fc88659c630a7843",
        "6affe6f29b1b843b39b38d4ed959394022312883cc6092b155b4dd8a88aaf4cf",
        "6a4be3ac6ace0df993cae066f9602f6a0b06874000c9055238bc7ab34bfc7a5f",
    ),
    ("dense_declared", 2): (
        "6cacb478120299a0aab7b88478d356d88f8a5fd4dab80b87ae3d9e3c797c6011",
        "69f217593fe279b9383b6dd3108a4803ab40e041bd99ff20e9ce41fe2f9e015c",
        "c33b383f58a221689b03ebceaeb87a9bf739beac008923dd0e9ad5db3eba024b",
    ),
    ("dense_declared", 3): (
        "2eb00adc2d794b6b82e556a396e9db6583065134c66e5de8f3b868680b30a64d",
        "15df1d787d417b7a171e6abccea3f88bc34b6607c80bcadfe3c68da9c59b1b40",
        "a1b8c106fdef9221dd25133e41bb9886559b51ba7fa0e429fdf354a506d026e2",
    ),
    ("dense_withheld", 1): (
        "19ec1f33b2b61a22626e698f8dd76c1ebd3773264a34261d686fe0ae8ec29926",
        "b99bb8b0ab1ded9c6ca3d41d8381031fb7a9e5f6e7f888b03558ac71d8369684",
        "a6a65ff4e2a2e7c5623ae74d39d3edbe8eed789067e51a71ac19250ebd9f83b6",
    ),
    ("dense_withheld", 2): (
        "ffe6d3054a825bd459d7f9e423f7b7b481ea9acc840d1c06fffb332ed3d8f8c4",
        "2992a3f8632e63375d982e93068d04ebe64af70d2639a8b29b02a37108cff0f5",
        "9ae390b3837d8f526ff0f7a845a1930fe8e1248a3cd060b073b0b827dbeffe8b",
    ),
    ("dense_withheld", 3): (
        "a1d06239f5325549b0cfd5953b47312d5df818108b3a0b22f2ade8bb192bf13d",
        "068cb343cdcf59e12f4dd1e606ada2cb2fc9c4c1302313cfd10a0d160aa41032",
        "4c440fbb2a2b256ea8c85c6c0611de341e670dc5e61f74209dba4ccb316ad9a0",
    ),
    ("sparse_bulk", 1): (
        "8a4eefc1461d00478ee8e60407c7d17b74adcecac8427a7a464ca0f4cc58971b",
        "5b01f3be032f27aa9c9e8b999ae58bfd6eede02b82389d855f20ebfa1a6dd304",
        "8229d4e82a9dcd86d9cfabf15ca1da745949f2efda6b28dabb8da5f79ac88d21",
    ),
    ("sparse_bulk", 2): (
        "c6fea7da929b09813a376ab12e222da59547ad7a77eda107f55b7932f7bc2894",
        "ea43e36dbe2b6658aa4082858e98b646febe74d3dc6eda770d8770a98179eb2b",
        "9e398a645a267a1ba2198ef75dd3be0c35d616af9265f86fbedbc3c6f078d33e",
    ),
    ("sparse_bulk", 3): (
        "8acb7618b274c21aa918f68ad2acb6edc106d5df6023a962e2d460e1018545fb",
        "497ec7ab430435d892d07e1f2b0981324fdf93cfb62209e04b67ffff6beecd72",
        "723bcdcba1b8454cfcd93e5ab4452c0487828b7fe352b945d2e4c5d3b42e2e53",
    ),
}


@functools.cache
def _bench_workloads() -> dict:
    """``bench/run.py``'s ``WORKLOADS``, loaded from the file; the bench's
    modules import each other by bare name, so its directory is on the path meanwhile."""
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(BENCH))
    try:
        spec.loader.exec_module(run)
    finally:
        sys.path.remove(str(BENCH))
    return run.WORKLOADS


@pytest.mark.parametrize("workload, seed", sorted(BENCH_DIGESTS))
def test_bench_workload_outputs_are_pinned(tmp_path, workload, seed):
    scenario = _bench_workloads()[workload](seed)
    for name, payload in scenario.files.items():
        (tmp_path / name).write_bytes(payload)
    outputs = [tmp_path / name for name in ("cmr.json", "od2.json", "report.json")]
    assert main([
        "integrate",
        *(arg for name in scenario.components for arg in ("--component", str(tmp_path / name))),
        "--ontology", str(tmp_path / scenario.ontology),
        *(arg for flag, path in zip(("--out-component", "--out-ontology", "--report"), outputs)
          for arg in (flag, str(path))),
    ]) == 0
    digests = tuple(hashlib.sha256(path.read_bytes()).hexdigest() for path in outputs)
    assert digests == BENCH_DIGESTS[workload, seed]


@pytest.mark.parametrize("second", ["cm2", "cm1"])
def test_align_report_equals_integrate_report(tmp_path, second, capsys):
    paths = {"cm1": FIXTURES / "cm1.json", "cm2": FIXTURES / f"{second}.json",
             "od": FIXTURES / "od.json"}
    assert main(_integrate_args(paths, tmp_path)) == 0
    aligned, aligned_od = tmp_path / "aligned.json", tmp_path / "aligned_od.json"
    code = main([
        "align",
        "--component", str(paths["cm1"]),
        "--component", str(paths["cm2"]),
        "--ontology", str(paths["od"]),
        "--report", str(aligned),
        "--out-ontology", str(aligned_od),
    ])
    assert code == 0
    assert aligned.read_bytes() == (tmp_path / "report.json").read_bytes()
    assert aligned_od.read_bytes() == (tmp_path / "od2.json").read_bytes()


def test_align_writes_report_only(tmp_path, scenario_files, capsys):
    report_path = tmp_path / "alignment.json"
    code = main([
        "align",
        "--component", str(scenario_files["cm1"]),
        "--component", str(scenario_files["cm2"]),
        "--ontology", str(scenario_files["od"]),
        "--report", str(report_path),
    ])
    assert code == 0
    report = model_io.parse_report(report_path)
    assert report.correspondences
    assert not (tmp_path / "cmr.json").exists()


def test_gen_eval_round_trip(tmp_path, capsys):
    data = tmp_path / "scenario"
    code = main([
        "gen", "--out-dir", str(data),
        "--concepts", "20", "--synonym-pairs", "4", "--homonym-pairs", "2",
        "--od-coverage", "1.0", "--seed", "7",
    ])
    assert code == 0
    out = tmp_path / "run"
    out.mkdir()
    code = main([
        "integrate",
        "--component", str(data / "cm1.json"),
        "--component", str(data / "cm2.json"),
        "--ontology", str(data / "od.json"),
        "--out-component", str(out / "cmr.json"),
        "--out-ontology", str(out / "od2.json"),
        "--report", str(out / "report.json"),
    ])
    assert code == 0
    capsys.readouterr()  # drop the gen subcommand's status line
    code = main([
        "eval",
        "--report", str(out / "report.json"),
        "--truth", str(data / "truth.json"),
    ])
    assert code == 0
    metrics = json.loads(capsys.readouterr().out)
    assert metrics["synonym"]["recall"] == 1.0
    assert metrics["homonym"]["recall"] == 1.0


def test_gen_is_deterministic(tmp_path):
    for name in ("a", "b"):
        assert main([
            "gen", "--out-dir", str(tmp_path / name), "--concepts", "12",
            "--synonym-pairs", "2", "--homonym-pairs", "1",
            "--od-coverage", "0.5", "--seed", "3",
        ]) == 0
    for name in ("cm1.json", "cm2.json", "od.json", "truth.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


# sha256 of ``gen``'s files: the default flags, and a half-covered spec
# whose withheld pairs plant cases 1, 2 and 3
GEN_DIGESTS = {
    "defaults": ([], {
        "cm1.json": "fb81bff74a5a45e691f8ebdd6eaace1059a78cc35bb59759fa4025b856113333",
        "cm2.json": "f5b05cfec8b434d6e8cae1e19428bd2bf0beb445a3990fc58a733c5f097ce2f1",
        "od.json": "419affe08d314b1c468a56099273d2759b5738c5b53a26b2f53185cfa9639998",
        "truth.json": "e621492e21b902bd5c1f4a4f4453ba884dfe581a63f53716e9ac88bf486095e5",
    }),
    "half_covered": (["--concepts", "24", "--synonym-pairs", "8", "--homonym-pairs", "2",
                      "--od-coverage", "0.5", "--seed", "1"], {
        "cm1.json": "0eaf9d29fe415416bd5e6edd1733f9f3d3faa1ec9b51b4d87b978c89d600d812",
        "cm2.json": "b1bf701e5f879b5524c5bb2391065199933df3c6a0cc6a14295576492923e48e",
        "od.json": "67bed39506b12d5edead8bb4589507eddc2fcc8396ddbf7abdffc0ffeb38125b",
        "truth.json": "0a2bdedfe4a2ab9c4ef175c254643dc08c666434229a98baab8010ec1f365ec2",
    }),
}


@pytest.mark.parametrize("name", sorted(GEN_DIGESTS))
def test_gen_outputs_are_pinned(tmp_path, name, capsys):
    flags, pinned = GEN_DIGESTS[name]
    assert main(["gen", "--out-dir", str(tmp_path), *flags]) == 0
    digests = {
        output: hashlib.sha256((tmp_path / output).read_bytes()).hexdigest()
        for output in pinned
    }
    assert digests == pinned
    if name == "half_covered":
        truth = json.loads((tmp_path / "truth.json").read_bytes())
        assert {p["case"] for p in truth["planted"]} == {None, 1, 2, 3}


def test_gen_from_spec_file(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "concept_count": 10, "synonym_pairs": 2, "homonym_pairs": 1,
        "od_coverage": 1.0, "rng_seed": 5,
    }), encoding="utf-8")
    assert main(["gen", "--out-dir", str(tmp_path / "s"), "--spec", str(spec_path)]) == 0
    assert (tmp_path / "s" / "truth.json").exists()


def test_infeasible_gen_spec_is_schema_error(tmp_path, capsys):
    code = main([
        "gen", "--out-dir", str(tmp_path / "x"),
        "--concepts", "4", "--synonym-pairs", "3", "--homonym-pairs", "0",
    ])
    assert code == 2


@pytest.mark.parametrize("spec", [
    [1, 2],
    {"concept_count": 10, "synonym_pairs": 2, "homonym_pairs": 1, "od_coverage": "half"},
    {"concept_count": 10, "synonym_pairs": 2, "homonym_pairs": 1, "rng_seed": [1]},
    {"concept_count": True, "synonym_pairs": False, "homonym_pairs": False},
    {"concept_count": 10, "synonym_pairs": 2, "homonym_pairs": 1, "rng_seed": True},
    {"concept_count": 10, "synonym_pairs": 2, "homonym_pairs": 1, "od_coverage": True},
    {"concept_count": 10, "synonym_pairs": 2, "homonym_pairs": 1, "od_coverage": "1/2"},
    {"concept_count": 10, "synonym_pairs": 2, "homonym_pairs": 1, "od_coverge": 0.5},
], ids=["root-not-object", "coverage-not-number", "seed-not-integer", "counts-boolean",
        "seed-boolean", "coverage-boolean", "coverage-fraction-string", "unknown-field"])
def test_malformed_gen_spec_is_schema_error(tmp_path, capsys, spec):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    code = main(["gen", "--out-dir", str(tmp_path / "x"), "--spec", str(spec_path)])
    assert code == 2
    assert "internal error" not in capsys.readouterr().err


_GOOD_RELATION = {"a": "A#x", "b": "B#y", "kind": "synonymy", "provenance": "inferred_case1"}


@pytest.mark.parametrize("relations_used, injected, evidence, path", [
    ([1], _GOOD_RELATION, [], "correspondences[0].evidence.relations_used[0]"),
    ([{"a": "x"}], _GOOD_RELATION, [], "correspondences[0].evidence.relations_used[0]"),
    ([], _GOOD_RELATION, ["oops"], "enrichments[0].evidence[0]"),
    ([], {**_GOOD_RELATION, "a": 1}, [], "enrichments[0].injected"),
], ids=["relation-not-object", "relation-missing-field", "evidence-not-object",
        "endpoint-not-string"])
def test_malformed_report_relation_is_schema_error(
    tmp_path, capsys, relations_used, injected, evidence, path
):
    report_path = tmp_path / "report.json"
    report_path.write_text(json.dumps({
        "format_version": 1,
        "correspondences": [{
            "c1": "A#x", "c2": "B#y", "score": "1", "verdict": "Synonym",
            "evidence": {"kind": "enriched", "relations_used": relations_used},
        }],
        "enrichments": [{"pair": ["A#x", "B#y"], "injected": injected, "evidence": evidence}],
        "clusters": [],
        "warnings": [],
    }), encoding="utf-8")
    truth_path = tmp_path / "truth.json"
    truth_path.write_text(json.dumps({
        "format_version": 1,
        "pairs": [{"c1": "A#x", "c2": "B#y", "verdict": "Synonym"}],
    }), encoding="utf-8")
    code = main(["eval", "--report", str(report_path), "--truth", str(truth_path)])
    assert code == 2
    assert path in capsys.readouterr().err


def _eval_one_pair(tmp_path, truth):
    """Run ``eval`` on a report of the one pair (A#x, B#y) against ``truth``."""
    report_path = tmp_path / "report.json"
    report_path.write_text(json.dumps({
        "format_version": 1,
        "correspondences": [{
            "c1": "A#x", "c2": "B#y", "score": "1", "verdict": "Identical",
            "evidence": {"kind": "syntactic", "relations_used": []},
        }],
        "enrichments": [],
        "clusters": [],
        "warnings": [],
    }), encoding="utf-8")
    truth_path = tmp_path / "truth.json"
    truth_path.write_text(json.dumps({"format_version": 1, **truth}), encoding="utf-8")
    return main(["eval", "--report", str(report_path), "--truth", str(truth_path)])


@pytest.mark.parametrize("verdict", ["Bogus", ["Synonym"]], ids=["unknown", "not-string"])
def test_bad_truth_verdict_is_schema_error(tmp_path, capsys, verdict):
    code = _eval_one_pair(tmp_path, {"pairs": [{"c1": "A#x", "c2": "B#y", "verdict": verdict}]})
    assert code == 2
    err = capsys.readouterr().err
    assert "unknown ground-truth verdict" in err
    assert "internal error" not in err


_PAIR = {"c1": "A#x", "c2": "B#y", "verdict": "Identical"}
_PLANTED = {"t1": "x", "t2": "y", "kind": "synonymy", "in_od": False, "case": 1}


@pytest.mark.parametrize("truth, message", [
    ({"pairs": [{"c1": "A#x", "verdict": "Identical"}]}, "pairs[0]: missing field 'c2'"),
    ({"pairs": [_PAIR], "planted": [{"t1": "x", "kind": "synonymy", "in_od": False}]},
     "planted[0]: missing field 't2'"),
    ({"pairs": [_PAIR], "planted": [{**_PLANTED, "in_od": "yes"}]},
     "planted[0]: field 'in_od' must be bool"),
    ({"pairs": [_PAIR], "planted": [{**_PLANTED, "kind": "part_of"}]},
     "planted[0]: unknown planted kind 'part_of'"),
    ({"pairs": [_PAIR], "planted": [{**_PLANTED, "case": "1"}]},
     "planted[0]: field 'case' must be int"),
    ({"pairs": [_PAIR], "planted": [_PLANTED, [1]]},
     "planted[1]: planted relation must be an object"),
    ({"pairs": [_PAIR], "planted": [{k: v for k, v in _PLANTED.items() if k != "in_od"}]},
     "planted[0]: missing field 'in_od'"),
    ({"pairs": [{"c1": "A#x", "c2": "B#y"}]}, "pairs[0]: missing field 'verdict'"),
    ({"pairs": [_PAIR, {**_PAIR, "verdict": "Synonym"}]},
     "pairs[1]: ground-truth pair ('A#x', 'B#y') is listed twice"),
], ids=["pair-missing-c2", "planted-missing-t2", "in_od-not-bool", "unknown-kind",
        "case-not-int", "planted-not-object", "in_od-missing", "verdict-missing",
        "pair-listed-twice"])
def test_malformed_truth_names_the_entry_and_field(tmp_path, capsys, truth, message):
    assert _eval_one_pair(tmp_path, truth) == 2
    err = capsys.readouterr().err
    assert f"truth.json: {message}" in err
    assert "internal error" not in err


def _generated_run(tmp_path):
    """A generated scenario integrated by the CLI: (report path, truth path)."""
    data, out = tmp_path / "scenario", tmp_path / "run"
    assert main([
        "gen", "--out-dir", str(data), "--concepts", "12",
        "--synonym-pairs", "3", "--homonym-pairs", "0", "--od-coverage", "1", "--seed", "2",
    ]) == 0
    out.mkdir()
    assert main([
        "integrate",
        "--component", str(data / "cm1.json"),
        "--component", str(data / "cm2.json"),
        "--ontology", str(data / "od.json"),
        "--out-component", str(out / "cmr.json"),
        "--out-ontology", str(out / "od2.json"),
        "--report", str(out / "report.json"),
    ]) == 0
    return out / "report.json", data / "truth.json"


def test_duplicate_report_pair_is_schema_error(tmp_path, capsys):
    report_path, truth_path = _generated_run(tmp_path)
    document = json.loads(report_path.read_bytes())
    synonym = next(c for c in document["correspondences"] if c["verdict"] == "Synonym")
    document["correspondences"].append({
        **synonym, "score": "0", "verdict": "Distinct",
        "evidence": {"kind": "syntactic", "relations_used": []},
    })
    report_path.write_text(json.dumps(document), encoding="utf-8")
    capsys.readouterr()
    code = main(["eval", "--report", str(report_path), "--truth", str(truth_path)])
    assert code == 2  # the second copy used to win: exit 0, macro_f1 below 1
    err = capsys.readouterr().err
    assert "is listed twice" in err
    assert "internal error" not in err


def test_duplicate_truth_pair_is_schema_error(tmp_path, capsys):
    report_path, truth_path = _generated_run(tmp_path)
    document = json.loads(truth_path.read_bytes())
    synonym = next(p for p in document["pairs"] if p["verdict"] == "Synonym")
    document["pairs"].append({**synonym, "verdict": "Distinct"})
    truth_path.write_text(json.dumps(document), encoding="utf-8")
    capsys.readouterr()
    code = main(["eval", "--report", str(report_path), "--truth", str(truth_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "is listed twice" in err
    assert "internal error" not in err


def test_unexpected_failure_is_internal_error(tmp_path, scenario_files, capsys, monkeypatch):
    import ontomerge.cli as cli_module

    def explode(*args, **kwargs):
        raise RuntimeError("simulated defect")

    monkeypatch.setattr(cli_module, "integrate", explode)
    code = main(_integrate_args(scenario_files, tmp_path))
    assert code == 4
    assert "internal error" in capsys.readouterr().err
    assert not (tmp_path / "cmr.json").exists()


def test_export_dot(tmp_path, scenario_files, capsys):
    code = main(["export-dot", "--ontology", str(scenario_files["od"])])
    assert code == 0
    payload = capsys.readouterr().out
    assert payload.startswith('digraph "Od"')
    assert 'label="synonymy"' in payload

    dot_path = tmp_path / "od.dot"
    assert main([
        "export-dot", "--ontology", str(scenario_files["od"]), "--out", str(dot_path),
    ]) == 0
    assert dot_path.read_text(encoding="utf-8") == payload


@pytest.mark.parametrize("command", ["integrate", "eval", "gen", "export-dot"])
def test_deeply_nested_json_is_schema_error(tmp_path, scenario_files, capsys, command):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
    out = tmp_path / "out"
    out.mkdir()
    args = {
        "integrate": _integrate_args({**scenario_files, "cm1": deep}, out),
        "eval": ["eval", "--report", str(deep), "--truth", str(deep),
                 "--out", str(out / "metrics.json")],
        "gen": ["gen", "--out-dir", str(out), "--spec", str(deep)],
        "export-dot": ["export-dot", "--ontology", str(deep), "--out", str(out / "od.dot")],
    }[command]
    assert main(args) == 2  # was 4: RecursionError surfaced as an internal error
    assert f"{deep}: invalid JSON: nested too deeply" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_doubled_component_relation_is_schema_error(tmp_path, scenario_files, capsys):
    edited = scenario_files["cm1"]
    document = json.loads(edited.read_bytes())
    document["relations"] = [{"a": "Service", "b": "Compagnie", "kind": "synonymy"},
                             {"a": "compagnie", "b": "Service", "kind": "synonymy"}]
    edited.write_text(json.dumps(document), encoding="utf-8")
    out = tmp_path / "out"
    out.mkdir()
    assert main(_integrate_args(scenario_files, out)) == 2
    assert (f"{edited}: component 'CM1': duplicate synonymy relation between "
            "'CM1#compagnie' and 'CM1#service'") in capsys.readouterr().err
    assert list(out.iterdir()) == []


def _with_string(path, add, escape):
    """Rewrite a document with one more string, spelled as the JSON ``escape``."""
    document = json.loads(path.read_bytes())
    add(document, "PLACEHOLDER")
    path.write_text(json.dumps(document).replace("PLACEHOLDER", escape), encoding="utf-8")


def _add_attribute(document, value):
    document["entities"][0]["attributes"].append(value)


def _add_concept(document, value):
    document["concepts"].append({"id": "Od#extra", "term": value, "children": []})


@pytest.mark.parametrize("command", ["integrate", "export-dot"])
@pytest.mark.parametrize("escape, code", [("\\ud800", 2), ("\\ud83d\\ude00", 0)],
                         ids=["lone", "pair"])
def test_only_a_lone_surrogate_escape_is_rejected(
    tmp_path, scenario_files, capsys, command, escape, code
):
    out = tmp_path / "out"
    out.mkdir()
    if command == "integrate":
        edited = scenario_files["cm1"]
        _with_string(edited, _add_attribute, escape)
        args = _integrate_args(scenario_files, out)
    else:
        edited = scenario_files["od"]
        _with_string(edited, _add_concept, escape)
        args = ["export-dot", "--ontology", str(edited), "--out", str(out / "od.dot")]
    assert main(args) == code  # a lone surrogate was 4: UnicodeEncodeError on write
    if code:
        assert f"{edited}: invalid JSON: unpaired surrogate" in capsys.readouterr().err
        assert list(out.iterdir()) == []
    else:
        written = b"".join(path.read_bytes() for path in out.iterdir())
        assert "\U0001f600".encode("utf-8") in written
