"""The stdlib-only scripts beside the tests: the pin check and the memory probe."""

import os
import subprocess
import sys
from pathlib import Path

from . import pins
from .memory_stages import STAGES
from .pins import FIXTURES


def test_memory_probe_prints_every_stage_on_the_fixtures():
    result = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("memory_stages.py")),
         "--component", str(FIXTURES / "cm1.json"), "--component", str(FIXTURES / "cm2.json"),
         "--ontology", str(FIXTURES / "od.json")],
        env={**os.environ, "PYTHONPATH": str(FIXTURES.parent / "src")},
        capture_output=True, text=True, timeout=120, check=False,
    )
    assert (result.returncode, result.stderr) == (0, "")
    header, *rows = result.stdout.splitlines()
    assert header.split() == ["stage", "peak_kib", "live_kib"]
    assert [row.rsplit(None, 2)[0] for row in rows] == list(STAGES)
    for row in rows:
        peak, live = map(float, row.split()[-2:])
        assert 0 < live <= peak


def test_pin_check_names_each_output_that_differs(monkeypatch):
    pinned = {**pins.PINNED_DIGESTS["fixtures"], "report.json": "0" * 64}
    monkeypatch.setattr(pins, "PINNED_DIGESTS", {"fixtures": pinned})
    failures = pins.check_pins()
    assert len(failures) == 1
    assert failures[0].startswith("fixtures report.json: sha256 ")
    assert failures[0].endswith(", pinned " + "0" * 64)
