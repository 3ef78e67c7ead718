"""What a fresh interpreter loads for ``integrate``, and what it loads on demand.

``integrate`` needs neither ``dataclasses`` (nor the ``inspect`` it pulls
in) nor the scenario generator ``evalgen``; the package resolves the
generator's public names on first use.  The package modules it loads are
pinned: without a bytecode cache every cold start compiles each of them,
so a module added to this path costs every run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys
before = set(sys.modules)
from ontomerge.cli import main
fixtures, out = sys.argv[1:]
inputs = ["--component", f"{fixtures}/cm1.json", "--component", f"{fixtures}/cm2.json",
          "--ontology", f"{fixtures}/od.json"]
facts = {"integrate": main(["integrate", *inputs, "--out-component", f"{out}/cm.json",
                            "--out-ontology", f"{out}/od.json", "--report", f"{out}/r.json"])}
loaded = set(sys.modules) - before
facts["loaded"] = sorted({"dataclasses", "inspect", "ontomerge.evalgen"} & loaded)
facts["modules"] = sorted(name for name in loaded if name.startswith("ontomerge"))
import ontomerge
names = ["GroundTruth", "ScenarioSpec", "evaluate", "generate_scenario"]
facts["lazy"] = [getattr(ontomerge, name) is getattr(sys.modules["ontomerge.evalgen"], name)
                 for name in names]
namespace = {}
exec("from ontomerge import *", namespace)
facts["unbound"] = sorted(set(ontomerge.__all__) - set(namespace))
scenario = f"{out}/scenario"
facts["gen"] = main(["gen", "--out-dir", scenario, "--concepts", "8", "--seed", "3",
                     "--synonym-pairs", "2", "--homonym-pairs", "1"])
facts["align"] = main(["align", "--component", f"{scenario}/cm1.json", "--component",
                       f"{scenario}/cm2.json", "--ontology", f"{scenario}/od.json",
                       "--report", f"{out}/scenario_report.json"])
facts["eval"] = main(["eval", "--report", f"{out}/scenario_report.json",
                      "--truth", f"{scenario}/truth.json", "--out", f"{out}/metrics.json"])
print(json.dumps(facts))
"""


def test_integrate_loads_no_dataclasses_and_no_scenario_generator(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "fixtures"), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120, check=False,
    )
    assert result.returncode == 0, result.stderr
    facts = json.loads(result.stdout.splitlines()[-1])
    assert facts == {
        "integrate": 0, "loaded": [], "lazy": [True] * 4, "unbound": [],
        "gen": 0, "align": 0, "eval": 0,
        "modules": ["ontomerge", "ontomerge.cli", "ontomerge.enrichment", "ontomerge.errors",
                    "ontomerge.integrator", "ontomerge.matching", "ontomerge.model",
                    "ontomerge.model_io", "ontomerge.similarity", "ontomerge.terms"],
    }
    assert json.loads((tmp_path / "metrics.json").read_text())["macro_f1"] == 1.0
