"""Package-wide rules that no single module's tests can see."""

import ast
from pathlib import Path

import ontoclass

PACKAGE_DIR = Path(ontoclass.__file__).parent


def private_imports(path: Path) -> list[str]:
    """`from <package module> import _name` statements in one file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        in_package = node.level > 0 or (node.module or "").split(".")[0] == "ontoclass"
        if not in_package:
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                found.append(f"{path.name}:{node.lineno} imports "
                             f"{alias.name} from {node.module or '.'}")
    return found


def test_no_module_imports_private_names_of_another():
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert len(modules) > 5
    found = [line for path in modules for line in private_imports(path)]
    assert found == []


def test_checker_sees_relative_and_absolute_private_imports(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "from .evaluate import _helper\n"
        "from ontoclass.features import _require_labels, count_matrix\n"
        "from os.path import _get_sep\n"
        "def f():\n"
        "    from . import _late\n",
        encoding="utf-8",
    )
    assert private_imports(path) == [
        "sample.py:1 imports _helper from evaluate",
        "sample.py:2 imports _require_labels from ontoclass.features",
        "sample.py:5 imports _late from .",
    ]
