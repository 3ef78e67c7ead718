"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import run
import scenarios
from tracer import COUNTS, SPANS, Tracer


@pytest.fixture(scope="module")
def cli():
    return run.load_program()


def integrate(cli, scenario, directory: Path) -> tuple[run.Invocation, list[str]]:
    invocation = run.prepare(cli, scenario, directory)
    ok, _ = invocation.run()
    assert ok
    return invocation, invocation.digests()


def package_namespaces() -> dict:
    """Every attribute of every loaded ontomerge module and of Ontology."""
    modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "ontomerge"]
    ontology = sys.modules["ontomerge.model"].Ontology
    return {id(owner): dict(vars(owner)) for owner in [*modules, ontology]}


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_same_seed_gives_same_bytes(workload):
    generate = run.WORKLOADS[workload]
    assert generate(3).files == generate(3).files
    assert generate(3).files != generate(4).files


def test_preflight_accepts_the_fixtures(cli, tmp_path):
    run.preflight(cli, tmp_path)


@pytest.fixture(scope="module")
def composite_report(cli, tmp_path_factory):
    scenario = scenarios.composite_scenario(5)
    invocation, _ = integrate(cli, scenario, tmp_path_factory.mktemp("composite"))
    report = json.loads(invocation.outputs[2].read_bytes())
    return scenario, {(c["c1"], c["c2"]): c["verdict"] for c in report["correspondences"]}


def test_composite_truth_covers_every_reported_pair(composite_report):
    scenario, predicted = composite_report
    assert predicted.keys() == scenario.verdicts.keys()
    assert set(scenario.verdicts.values()) == {"Distinct", "Identical", "Synonym"}


@pytest.mark.xfail(strict=True, reason="case-3 enrichment refuses composites wider "
                   "than 8 children, so the planted 12-child synonymy is Identical")
def test_composite_verdicts_match_construction(composite_report):
    scenario, predicted = composite_report
    assert predicted == scenario.verdicts


@pytest.mark.parametrize("scenario", [
    scenarios.planted_scenario(40, 14, 6, Fraction(0), seed=2),
    scenarios.composite_scenario(seed=2),
], ids=["planted_withheld", "composite"])
def test_traced_outputs_match_untraced_and_wrappers_are_restored(cli, tmp_path, scenario):
    invocation, untraced = integrate(cli, scenario, tmp_path)
    before = package_namespaces()
    tracer = Tracer()
    with tracer:
        assert package_namespaces() != before
        ok, _ = invocation.run()
    assert ok
    assert invocation.digests() == untraced
    after = package_namespaces()
    assert after.keys() == before.keys()
    for owner, namespace in before.items():
        assert all(after[owner][key] is value for key, value in namespace.items())
    metrics = tracer.metrics()
    assert tracer.absent == []
    assert metrics["integrator.pairs"] == len(scenario.verdicts)
    assert metrics["enrichment.attempts"] > 0
    assert metrics["terms.normalize_calls"] > 0
    assert metrics["cli.self_s"] > 0


def test_traced_counts_repeat_exactly(cli, tmp_path):
    invocation, _ = integrate(cli, scenarios.planted_scenario(40, 14, 6, Fraction(0), 2),
                              tmp_path)
    counts = []
    for _ in range(2):
        tracer = Tracer()
        with tracer:
            invocation.run()
        counts.append({k: v for k, v in tracer.metrics().items() if run.unit(k) != "s"})
    assert counts[0] == counts[1]


def test_absent_targets_are_reported_not_fatal(cli, tmp_path):
    invocation, untraced = integrate(
        cli, scenarios.planted_scenario(20, 4, 2, Fraction(1), 1), tmp_path)
    spans = SPANS + (("matching", "removed_matcher", "gone.s", "gone.calls"),
                     ("removed_module", "anything", "gone_module.s", None))
    counts = COUNTS + (("model", "Ontology.removed_scan", "gone_scan.calls"),)
    tracer = Tracer(spans=spans, counts=counts)
    with tracer:
        ok, _ = invocation.run()
    assert ok and invocation.digests() == untraced
    assert tracer.absent == ["matching.removed_matcher", "removed_module.anything",
                             "model.Ontology.removed_scan"]
    metrics = tracer.metrics()
    assert metrics["gone.s"] == metrics["gone.calls"] == metrics["gone_scan.calls"] == 0


def test_fails_without_the_program(tmp_path):
    """Given only the benchmark's own files, it exits nonzero and prints no result."""
    shutil.copytree(Path(run.__file__).parent, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    result = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sparse_bulk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert "correct" not in result.stdout
