"""The demos import only names the package provides.

Each demo is parsed, not run (they simulate at full size); every name a
demo imports from mutegossip must exist on the module it names.
"""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


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
