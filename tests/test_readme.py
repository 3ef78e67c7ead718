"""The README's Python snippets run as written, from the repository root.

The blocks run in order in one namespace, as a reader would paste them;
shell blocks are not run.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.MULTILINE | re.DOTALL)


def test_readme_python_blocks_run(monkeypatch):
    assert BLOCKS
    monkeypatch.chdir(ROOT)
    namespace = {"__name__": "readme"}
    for index, block in enumerate(BLOCKS):
        exec(compile(block, f"README.md python block {index}", "exec"), namespace)
