"""Package-wide rules that no single module's tests can see."""

import ast
from dataclasses import fields
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


def unused_imports(path: Path) -> list[str]:
    """Names that one file imports but never reads as a plain name;
    `from __future__` imports are exempt."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in read:
                    found.append(f"{path.name}:{node.lineno} {bound}")
    return found


def test_no_module_imports_a_name_it_does_not_use():
    modules = [path for path in sorted(PACKAGE_DIR.glob("*.py"))
               if path.name != "__init__.py"]
    assert len(modules) > 5
    assert [line for path in modules for line in unused_imports(path)] == []


def test_unused_import_checker_sees_names_never_read(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from dataclasses import dataclass, field\n"
        "from typing import Mapping\n"
        "from .errors import OntoclassError\n"
        "def f(x: Mapping) -> None:\n"
        "    np.zeros(1)\n"
        "    raise OntoclassError(dataclass)\n",
        encoding="utf-8",
    )
    assert unused_imports(path) == [
        "sample.py:2 os",
        "sample.py:4 field",
    ]


def defined_names(stmt: ast.stmt) -> list[str]:
    """The names a module-level function, class or plain assignment binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    return [t.id for t in targets if isinstance(t, ast.Name)]


def names_read(node: ast.AST, skip: list[str]) -> set[str]:
    """Every plain name, attribute and imported name under `node`, less
    `skip`."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name)
    return found - set(skip)


def is_dataclass(stmt: ast.ClassDef) -> bool:
    """Whether a class is decorated `@dataclass` or `@dataclass(...)`."""
    for node in stmt.decorator_list:
        node = node.func if isinstance(node, ast.Call) else node
        if getattr(node, "id", getattr(node, "attr", None)) == "dataclass":
            return True
    return False


def attributes_read(tree: ast.AST) -> set[str]:
    """Every attribute that some `x.name` expression under `tree` loads."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def unused_public_names(modules: list[Path], readers: list[Path] = ()) -> list[str]:
    """Public module-level functions, classes and constants, and public
    methods and properties, that no other place in `modules` names. A
    definition naming itself does not count, and neither does a package
    `__init__.py`, which only re-exports. An attribute read in one of
    `readers`, code outside the package, counts as a use too. A public
    dataclass field counts as used only where some `x.field` reads it;
    its declaration and keyword construction do not."""
    defined: list[tuple[str, str]] = []
    fields: list[tuple[str, str]] = []
    used: set[str] = set()
    read: set[str] = set()
    for path in modules:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read |= attributes_read(tree)
        for stmt in tree.body:
            owners = defined_names(stmt)
            defined += [(owner, f"{path.name}:{stmt.lineno} {owner}")
                        for owner in owners if not owner.startswith("_")]
            if not isinstance(stmt, ast.ClassDef):
                used |= names_read(stmt, owners)
                continue
            for node in stmt.bases + stmt.keywords + stmt.decorator_list:
                used |= names_read(node, owners)
            for item in stmt.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if not item.name.startswith("_"):
                        defined.append((item.name, f"{path.name}:{item.lineno} "
                                                   f"{stmt.name}.{item.name}"))
                    used |= names_read(item, owners + [item.name])
                    continue
                used |= names_read(item, owners)
                if (is_dataclass(stmt) and isinstance(item, ast.AnnAssign)
                        and isinstance(item.target, ast.Name)
                        and not item.target.id.startswith("_")):
                    fields.append((item.target.id, f"{path.name}:{item.lineno} "
                                                   f"{stmt.name}.{item.target.id}"))
    for path in readers:
        outside = attributes_read(ast.parse(path.read_text(encoding="utf-8")))
        used |= outside
        read |= outside
    return sorted([where for name, where in defined if name not in used]
                  + [where for name, where in fields if name not in read])


def test_every_public_name_is_used_by_the_package():
    readers = sorted((PACKAGE_DIR.parent.parent / "bench").glob("*.py"))
    assert readers
    assert unused_public_names(sorted(PACKAGE_DIR.glob("*.py")), readers) == []


def test_unused_checker_sees_what_only_its_own_body_names(tmp_path):
    (tmp_path / "__init__.py").write_text(
        "from .a import exported\n", encoding="utf-8"
    )
    (tmp_path / "a.py").write_text(
        "def exported():\n"
        "    return exported()\n"
        "class Node:\n"
        "    child: Node\n"
        "def called():\n"
        "    return 1\n"
        "def _private():\n"
        "    return called()\n"
        "LIMIT = 3\n"
        "SPARE: int = 4\n"
        "LOOP = LOOP_START = 0\n"
        "_HIDDEN = 5\n",
        encoding="utf-8",
    )
    (tmp_path / "b.py").write_text(
        "from .a import Node\n"
        "from . import a\n"
        "def _total():\n"
        "    return a.LIMIT + a.LOOP\n",
        encoding="utf-8",
    )
    assert unused_public_names(sorted(tmp_path.glob("*.py"))) == [
        "a.py:1 exported",
        "a.py:10 SPARE",
        "a.py:11 LOOP_START",
    ]


def test_unused_checker_sees_methods_and_reads_outside_the_package(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "a.py").write_text(
        "class Tree(Base):\n"
        "    child: Tree\n"
        "    def size(self):\n"
        "        return 1 + self.size()\n"
        "    @property\n"
        "    def depth(self):\n"
        "        return 0\n"
        "    def leaves(self):\n"
        "        return self.depth\n"
        "    def shown(self):\n"
        "        return 2\n"
        "    def _helper(self):\n"
        "        return 3\n"
        "    def __len__(self):\n"
        "        return 4\n"
        "class Base:\n"
        "    pass\n",
        encoding="utf-8",
    )
    (package / "b.py").write_text(
        "from .a import Tree\n"
        "def _grow():\n"
        "    return Tree().leaves\n",
        encoding="utf-8",
    )
    reader = tmp_path / "bench.py"
    reader.write_text("shown = 1\nprint(tree.shown())\nleaves, size = 1, 2\n",
                      encoding="utf-8")
    modules = sorted(package.glob("*.py"))
    assert unused_public_names(modules, [reader]) == ["a.py:3 Tree.size"]
    assert unused_public_names(modules) == ["a.py:10 Tree.shown",
                                            "a.py:3 Tree.size"]


def test_unused_checker_sees_dataclass_fields_never_read(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "a.py").write_text(
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class Doc:\n"
        "    doc_id: str\n"
        "    title: str = ''\n"
        "    authors: str = ''\n"
        "    source: str = ''\n"
        "    _cache: str = ''\n"
        "    def shown(self):\n"
        "        return self.doc_id\n"
        "@dataclass\n"
        "class Span:\n"
        "    start: int\n"
        "    end: int\n"
        "class Plain:\n"
        "    size: int\n",
        encoding="utf-8",
    )
    (package / "b.py").write_text(
        "from .a import Doc, Plain, Span\n"
        "def _make():\n"
        "    doc = Doc(doc_id='1', authors='x')\n"
        "    return doc.shown(), Span(1, 2).end, Plain\n",
        encoding="utf-8",
    )
    reader = tmp_path / "bench.py"
    reader.write_text("title = 1\nprint(doc.source)\n", encoding="utf-8")
    modules = sorted(package.glob("*.py"))
    assert unused_public_names(modules, [reader]) == [
        "a.py:13 Span.start", "a.py:5 Doc.title", "a.py:6 Doc.authors",
    ]
    assert unused_public_names(modules) == [
        "a.py:13 Span.start", "a.py:5 Doc.title", "a.py:6 Doc.authors",
        "a.py:7 Doc.source",
    ]


def reexported_names(init: Path) -> list[str]:
    """Names that a package `__init__.py` imports from its own submodules."""
    return [
        alias.asname or alias.name
        for node in ast.parse(init.read_text(encoding="utf-8")).body
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
    ]


def test_export_list_matches_the_reexports():
    exported = ontoclass.__all__
    assert len(exported) == len(set(exported))
    assert set(exported) == set(reexported_names(PACKAGE_DIR / "__init__.py"))
    for name in exported:
        getattr(ontoclass, name)


def test_reexport_reader_sees_relative_imports_only(tmp_path):
    path = tmp_path / "__init__.py"
    path.write_text(
        "from .a import one, two as second\n"
        "from os import path\n"
        "from .b import (\n"
        "    three,\n"
        ")\n"
        "__all__ = ['one']\n",
        encoding="utf-8",
    )
    assert reexported_names(path) == ["one", "second", "three"]


def package_imports(path: Path) -> set[str]:
    """The package modules that one file imports from."""
    return {
        node.module or "."
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.level > 0
    }


def allowed_value_names(path: Path) -> set[str]:
    """Module-level names that one file binds to a tuple of strings."""
    return {
        name
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Tuple)
        and all(isinstance(e, ast.Constant) and isinstance(e.value, str)
                for e in stmt.value.elts)
        for name in defined_names(stmt)
    }


def test_allowed_values_live_in_config_alone():
    config = ontoclass.config
    assert package_imports(PACKAGE_DIR / "config.py") == {"errors"}
    names = allowed_value_names(PACKAGE_DIR / "config.py")
    assert {"STRATEGIES", "DISAMBIGUATIONS", "HYPERONYM_VARIANTS", "SIMILARITIES",
            "WEIGHTINGS", "LABEL_POLICIES"} <= names
    tuples = [getattr(config, name) for name in names]
    for setting in fields(config.ExperimentConfig):
        allowed = setting.metadata.get("allowed")
        assert not allowed or any(allowed is t for t in tuples), setting.name
    bound_elsewhere = [
        f"{path.name}:{stmt.lineno} {name}"
        for path in sorted(PACKAGE_DIR.glob("*.py")) if path.name != "config.py"
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body
        for name in defined_names(stmt) if name in names
    ]
    assert bound_elsewhere == []


def test_layout_readers_see_relative_imports_and_string_tuples(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "from .errors import ConfigError\n"
        "from . import corpus\n"
        "from os import path\n"
        "KINDS = ('a', 'b')\n"
        "SIZES = (1, 2)\n"
        "EMPTY: tuple = ()\n",
        encoding="utf-8",
    )
    assert package_imports(path) == {"errors", "."}
    assert allowed_value_names(path) == {"KINDS"}
