"""Benchmark complete ``ontomerge integrate`` runs on seeded workloads.

Run from the root of a source checkout (stdlib only, nothing to install):

    python3 bench/run.py --workload dense_declared --seed 1 --seconds 15 --trace 0

Each run writes the workload's inputs from ``--seed`` to
``.bench_work/<workload>/`` and calls ``ontomerge.cli.main`` in-process,
exactly as the ``integrate`` command line would: parse the files,
integrate, serialize and atomically write three outputs.  One invocation
at a time (a closed loop with one client).  Before timing, the worked
example under ``fixtures/`` must give the merged entities its README
promises.

``--trace 0`` reports the end-to-end metrics:

* ``integrate_s``: median wall time of the invocations timed back to back
  for ``--seconds`` (at least three), each converted to reference host
  speed by the calibration of ``calibration.py``; the garbage of the
  previous invocation is collected before each;
* ``setup_s``: median cold start of a fresh interpreter until
  ``import ontomerge.cli`` returns, converted the same way;
* ``peak_mib``: ``tracemalloc`` peak of one extra, untimed invocation;
* ``output_mib``: size of the three output files;
* ``verdict_accuracy`` and ``macro_f1``: the verdicts against the
  workload's ground truth;
* ``success_rate``: 1 - ``error_rate``, the share of invocations that did
  not fail.  A failure is an exception, a nonzero exit or outputs that
  differ from the workload's first run, whose pair set must equal the
  ground truth.

``--trace 1`` alternates untraced and traced invocations for ``--seconds``
and reports the per-layer metrics of ``tracer.py`` (medians of the self
times; counts must repeat exactly) plus ``trace.overhead``, the traced
over the untraced median wall time.  Traced outputs must be byte-identical
to untraced ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above it
give every metric with its unit and the sha256 of each output file.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import scenarios
from calibration import HostSpeed
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
FIXTURES = ROOT / "fixtures"
WORK = ROOT / ".bench_work"
OUTPUTS = ("out_component.json", "out_ontology.json", "out_report.json")
# the merged entities README.md promises for the worked example under fixtures/
FIXTURE_ENTITIES = ["Cabinet", "Service (CM1)", "Service (CM2)"]
COLD_STARTS = 9
MIN_TIMED = 3

# Why each workload exists is recorded in BENCHMARK.json and bench/README.md.
WORKLOADS = {
    "sparse_bulk": lambda seed: scenarios.planted_scenario(320, 8, 2, Fraction(1), seed),
    "dense_declared": lambda seed: scenarios.planted_scenario(150, 60, 15, Fraction(1), seed),
    "dense_withheld": lambda seed: scenarios.planted_scenario(64, 26, 6, Fraction(0), seed),
    "composite_wide": scenarios.composite_scenario,
}

UNITS = {
    "peak_mib": "MiB", "output_mib": "MiB",
    "verdict_accuracy": "ratio", "macro_f1": "ratio", "success_rate": "ratio",
    "model_io.report_bytes": "bytes",
    "enrichment.hit_ratio": "ratio", "terms.normalize_per_pair": "calls/pair",
    "trace.overhead": "ratio",
}


class BenchmarkError(Exception):
    """Set-up failed, so nothing can be measured."""


def unit(name: str) -> str:
    return UNITS.get(name, "s" if name.endswith("_s") else "count")


def load_program():
    """Import ``ontomerge.cli`` from this checkout's sources and nowhere else."""
    if not (SOURCE / "ontomerge" / "__init__.py").is_file():
        raise BenchmarkError(f"no ontomerge sources under {SOURCE}")
    sys.path.insert(0, str(SOURCE))
    import ontomerge.cli

    if Path(ontomerge.cli.__file__).resolve().parent != SOURCE / "ontomerge":
        raise BenchmarkError(f"imported ontomerge from {ontomerge.cli.__file__}")
    return ontomerge.cli


def fresh_directory(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class Invocation:
    """One ``integrate`` command line over fixed input and output files."""

    def __init__(self, cli, components, ontology: Path, out_dir: Path):
        self.cli = cli
        self.inputs = [*components, ontology]
        self.outputs = [out_dir / name for name in OUTPUTS]
        self.argv = ["integrate"]
        for path in components:
            self.argv += ["--component", str(path)]
        self.argv += ["--ontology", str(ontology)]
        for flag, path in zip(("--out-component", "--out-ontology", "--report"), self.outputs):
            self.argv += [flag, str(path)]

    def run(self) -> tuple[bool, float]:
        """Return (exit code was 0, wall seconds) of one invocation.

        ``main`` is looked up on every call, so that a tracer's wrapper is seen.
        """
        for path in self.outputs:
            path.unlink(missing_ok=True)  # a failed run must not leave old outputs
        gc.collect()
        start = perf_counter()
        try:
            code = self.cli.main(self.argv)
        except Exception as exc:  # noqa: BLE001 - counted as a failed invocation
            print(f"invocation raised {exc!r}", file=sys.stderr)
            code = None
        return code == 0, perf_counter() - start

    def digests(self) -> list[str]:
        return [
            hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else ""
            for path in self.outputs
        ]


def preflight(cli, out_dir: Path) -> None:
    """Integrate the README's worked example and check its merged entities."""
    invocation = Invocation(
        cli, [FIXTURES / "cm1.json", FIXTURES / "cm2.json"], FIXTURES / "od.json", out_dir
    )
    if not all(path.is_file() for path in invocation.inputs):
        raise BenchmarkError(f"fixture pre-flight: inputs missing under {FIXTURES}")
    ok, _ = invocation.run()
    if not ok:
        raise BenchmarkError("fixture pre-flight: integrate failed")
    merged = json.loads(invocation.outputs[0].read_bytes())
    names = sorted(entity["name"] for entity in merged["entities"])
    if names != FIXTURE_ENTITIES:
        raise BenchmarkError(f"fixture pre-flight: merged entities {names}, "
                             f"expected {FIXTURE_ENTITIES}")


def prepare(cli, scenario, directory: Path) -> Invocation:
    """Write the scenario's inputs into ``directory``; outputs go there too."""
    for name, payload in scenario.files.items():
        (directory / name).write_bytes(payload)
    return Invocation(
        cli, [directory / name for name in scenario.components],
        directory / scenario.ontology, directory,
    )


def first_run(invocation: Invocation, scenario) -> tuple[list[str], dict]:
    """The workload's first, untimed run: later outputs must equal its bytes.

    Returns the output digests and the parsed report.
    """
    ok, _ = invocation.run()
    if not ok:
        raise BenchmarkError("first integrate run failed")
    report = json.loads(invocation.outputs[2].read_bytes())
    pairs = {(c["c1"], c["c2"]) for c in report["correspondences"]}
    if pairs != scenario.verdicts.keys():
        raise BenchmarkError("first run: report pair set differs from the ground truth")
    return invocation.digests(), report


def cold_start() -> float:
    """Wall time of a fresh interpreter until ``import ontomerge.cli`` returns."""
    command = [sys.executable, "-c",
               f"import sys; sys.path.insert(0, {str(SOURCE)!r}); import ontomerge.cli"]
    start = perf_counter()
    try:
        subprocess.run(command, cwd=ROOT, check=True, timeout=60,
                       stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        raise BenchmarkError(f"cold start failed: {exc}") from exc
    return perf_counter() - start


def verdict_quality(report: dict, report_path: Path, truth: dict) -> tuple[float, float]:
    """(share of pairs whose verdict equals the truth, evalgen macro F1)."""
    from ontomerge import evalgen, model_io

    predicted = {(c["c1"], c["c2"]): c["verdict"] for c in report["correspondences"]}
    accuracy = sum(predicted[pair] == verdict for pair, verdict in truth.items()) / len(truth)
    scores = evalgen.evaluate(model_io.parse_report(report_path),
                              evalgen.GroundTruth(verdicts=dict(truth)))
    return accuracy, scores["macro_f1"]


def end_to_end(scenario, invocation: Invocation, seconds: float):
    cold_start()  # writes the bytecode cache, so that every counted start finds it
    reference, report = first_run(invocation, scenario)
    accuracy, macro_f1 = verdict_quality(report, invocation.outputs[2], scenario.verdicts)
    del report

    # A calibration after each measurement converts it to reference host
    # speed (see calibration.py).  One cold start after each timed invocation
    # spreads the set-up samples over the same window.
    speed = HostSpeed()
    walls, times, setups, failed = [], [], [], 0
    deadline = perf_counter() + seconds
    while len(times) < MIN_TIMED or perf_counter() < deadline:
        ok, elapsed = invocation.run()
        walls.append(elapsed)
        times.append(speed.scale(elapsed))
        failed += not (ok and invocation.digests() == reference)
        setups.append(speed.scale(cold_start()))
    while len(setups) < COLD_STARTS:
        setups.append(speed.scale(cold_start()))

    tracemalloc.start()
    try:
        ok, _ = invocation.run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    failed += not (ok and invocation.digests() == reference)

    attempted = 1 + len(times) + 1
    metrics = {
        "integrate_s": statistics.median(times),
        "setup_s": statistics.median(setups),
        "peak_mib": peak / 2**20,
        "output_mib": sum(path.stat().st_size for path in invocation.outputs) / 2**20,
        "verdict_accuracy": accuracy,
        "macro_f1": macro_f1,
        "success_rate": 1 - failed / attempted,
    }
    notes = [
        f"{name} over {len(values)} samples: min {min(values):.4f}, q1 {q1:.4f}, "
        f"median {statistics.median(values):.4f}, q3 {q3:.4f}, max {max(values):.4f} s"
        for name, values in (("integrate_s", times), ("setup_s", setups),
                             ("unscaled integrate wall time", walls))
        for q1, _, q3 in [statistics.quantiles(values, n=4)]
    ]
    notes.append(f"host speed factor: median {statistics.median(speed.factors):.4f} "
                 f"(reference over measured calibration round, {len(speed.factors)} samples)")
    notes.append(f"error_rate {failed / attempted:.4f} ratio "
                 f"({failed} of {attempted} invocations failed)")
    return metrics, attempted, failed, reference, notes


def per_layer(scenario, invocation: Invocation, seconds: float):
    reference, report = first_run(invocation, scenario)

    untraced, traced, runs, failed = [], [], [], 0
    absent: list[str] = []
    deadline = perf_counter() + seconds
    while not traced or perf_counter() < deadline:
        ok, elapsed = invocation.run()
        untraced.append(elapsed)
        failed += not (ok and invocation.digests() == reference)
        tracer = Tracer()
        with tracer:
            ok, elapsed = invocation.run()
        traced.append(elapsed)
        failed += not (ok and invocation.digests() == reference)
        runs.append(tracer.metrics())
        absent = tracer.absent

    notes = []
    metrics = {}
    for name in runs[0]:
        values = [run[name] for run in runs]
        if unit(name) == "s":
            metrics[name] = statistics.median(values)
        else:
            if len(set(values)) > 1:
                failed += 1
                notes.append(f"{name} differs between traced runs: {values}")
            metrics[name] = values[0]

    def size(path: Path) -> tuple[int, int]:
        document = json.loads(path.read_bytes())
        return len(document["concepts"]), len(document["relations"])

    before = size(invocation.inputs[-1])
    after = size(invocation.outputs[1])
    metrics["enrichment.od_concepts_added"] = after[0] - before[0]
    metrics["enrichment.od_relations_added"] = after[1] - before[1]
    warnings = report["warnings"]
    metrics["enrichment.refused"] = sum(w.startswith("enrichment refused") for w in warnings)
    metrics["enrichment.skipped"] = sum(w.startswith("enrichment skipped") for w in warnings)
    metrics["trace.overhead"] = statistics.median(traced) / statistics.median(untraced)

    notes.append(f"{len(traced)} traced and {len(untraced)} untraced invocations; "
                 f"untraced median {statistics.median(untraced):.4f} s")
    notes.append("absent (removed from the program, reported as 0): "
                 + (", ".join(absent) if absent else "none"))
    attempted = 1 + len(untraced) + len(traced)
    return metrics, attempted, failed, reference, notes


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        cli = load_program()
        preflight(cli, fresh_directory(WORK / "preflight"))
        scenario = WORKLOADS[args.workload](args.seed)
        invocation = prepare(cli, scenario, fresh_directory(WORK / args.workload))
        measure = per_layer if args.trace else end_to_end
        metrics, attempted, failed, digests, notes = measure(
            scenario, invocation, args.seconds)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}; "
          "fixture pre-flight passed")
    for name, digest in zip(OUTPUTS, digests):
        print(f"sha256 {name} {digest}")
    for note in notes:
        print(note)
    for name, value in metrics.items():
        print(f"{name:34} {value:>16.6f} {unit(name)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
