import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "mutegossip"


def test_no_module_imports_an_underscored_name_from_another():
    # A module's underscored names are its own: a name that another module
    # needs gets a public name.  Dunders such as __version__ are public.
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "mutegossip"):
                found += [f"{path.name}: {alias.name}" for alias in node.names
                          if alias.name.startswith("_") and not alias.name.endswith("__")]
    assert found == []
