"""What a fresh interpreter loads for ``integrate``, what it loads on demand,
and what each package module imports.

``integrate`` needs neither ``dataclasses`` (nor the ``inspect`` it pulls
in) nor the scenario generator ``evalgen``; the package resolves the
generator's public names on first use.  The package modules it loads are
pinned: without a bytecode cache every cold start compiles each of them,
so a module added to this path costs every run.  No module imports a name
it never uses, which a refactor that deletes the last use would leave.
The package's public names are pinned, and every other public name it
binds is a submodule, so that a new export is a decision.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import symtable
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

PUBLIC = [
    "Association", "BusinessComponent", "Cluster", "ComponentRelation", "Concept",
    "Correspondence", "CyclicComposition", "EmptyTerm", "EnrichmentRecord", "Entity", "Evidence",
    "GroundTruth", "HomonymClusterCollision", "InfeasibleSpec", "IntegrationError",
    "MalformedFile", "Ontology", "Relation", "Report", "ScenarioMismatch", "ScenarioSpec",
    "SchemaViolation", "align", "build_clusters", "evaluate", "export_dot", "generate_scenario",
    "integrate", "merge", "normalize_term", "pair_space_of", "parse_component", "parse_ontology",
    "parse_report", "serialize_component", "serialize_ontology", "serialize_report",
]

SCRIPT = """
import json, sys, types
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
facts["public"] = sorted(ontomerge.__all__)
facts["stray"] = sorted(name for name, value in vars(ontomerge).items()
                        if not name.startswith("_") and name not in ontomerge.__all__
                        and not isinstance(value, types.ModuleType))
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
        "public": PUBLIC, "stray": [],
        "gen": 0, "align": 0, "eval": 0,
        "modules": ["ontomerge", "ontomerge.cli", "ontomerge.enrichment", "ontomerge.errors",
                    "ontomerge.integrator", "ontomerge.matching", "ontomerge.model",
                    "ontomerge.model_io", "ontomerge.similarity", "ontomerge.terms"],
    }
    assert json.loads((tmp_path / "metrics.json").read_text())["macro_f1"] == 1.0


def unused_imports(source: str) -> list[str]:
    """The names that ``source`` imports at module level and never reads, with their line.

    A read is a reference that resolves to the module scope (``symtable``
    says which, so a local of the same name is not one), a name in an
    annotation, quoted or not, or an entry of ``__all__``."""
    top = symtable.symtable(source, "<module>", "exec")
    imported = {s.get_name() for s in top.get_symbols() if s.is_imported()} - {"annotations"}
    used: set[str] = set()
    tables = [top]
    for table in tables:
        tables.extend(table.get_children())
        used.update(s.get_name() for s in table.get_symbols()
                    if s.is_referenced() and (table is top or s.is_global()))
    lines: dict[str, int] = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                lines.setdefault(alias.asname or alias.name.partition(".")[0], node.lineno)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
        hint = (node.annotation if isinstance(node, (ast.arg, ast.AnnAssign))
                else node.returns if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                else None)  # not evaluated under ``from __future__ import annotations``
        for part in ast.walk(hint) if hint is not None else ():
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                part = ast.parse(part.value, mode="eval")
            used.update(n.id for n in ast.walk(part) if isinstance(n, ast.Name))
    return sorted(f"{name} (line {lines[name]})" for name in imported - used)


def test_the_unused_import_check_finds_an_import_left_behind():
    source = (
        "from __future__ import annotations\n"
        "from collections import Counter\n"
        "from itertools import chain\n"
        "import os.path\n"
        "from typing import Optional, Sequence\n"
        "from .model import Ontology\n"
        "__all__ = ['Sequence']\n"
        "def f(a: 'Optional[Ontology]') -> int:\n"
        "    chain = [a]\n"
        "    return os.path.sep, chain\n"
    )
    assert unused_imports(source) == ["Counter (line 2)", "chain (line 3)"]


@pytest.mark.parametrize("module", sorted(p.name for p in (ROOT / "src" / "ontomerge").glob("*.py")))
def test_no_package_module_imports_a_name_it_never_uses(module):
    assert unused_imports((ROOT / "src" / "ontomerge" / module).read_text(encoding="utf-8")) == []
