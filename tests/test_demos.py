"""The demos import only names the package provides, and the spreading
demo runs.

Every demo is parsed, and every name it imports from mutegossip must exist
on the module it names.  The others simulate at full size, so only the
spreading demo is run (about 2 s): it is the one caller of
completion_rounds, total_messages and plateau_median on both engines.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _imports(path: Path) -> list[tuple[str, str]]:
    """(module, name) for every `from mutegossip... import name`."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "mutegossip":
            out.extend((node.module, alias.name) for alias in node.names)
    return out


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(path):
    imports = _imports(path)
    assert imports, f"{path.name} imports nothing from mutegossip"
    missing = [
        f"{module}.{name}"
        for module, name in imports
        if not hasattr(importlib.import_module(module), name)
    ]
    assert not missing, f"{path.name} imports names the package lacks: {missing}"


def test_spreading_demo_runs():
    path = os.pathsep.join([str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "01_spreading.py")],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    # At s = 0 one node sends per round, so the rounds equal the messages.
    line = re.search(r"^ +0 +(\d+) +(\d+)$", done.stdout, re.MULTILINE)
    assert line and line[1] == line[2], done.stdout
