"""Every name a module of the package imports is used in that module or
re-exported through its __all__, and every private name a module defines
is read in that module, so that deleting the last use of a helper also
deletes its import, and a helper left without a caller is caught.  Every
third-party package the tests import is declared in pyproject.toml."""

import ast
import re
import sys
from pathlib import Path

import pytest

import uncrel

PACKAGE = Path(uncrel.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))
TESTS = Path(__file__).resolve().parent


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Module-level bindings made by import statements, with their lines."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere in the module, string annotations included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            used |= used_names(ast.parse(annotation.value, mode="eval"))
    return used


def exported_names(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    kept = used_names(tree) | exported_names(tree)
    unused = {name: line for name, line in imported_names(tree).items() if name not in kept}
    assert not unused, f"{path.name}: unused imports (name: line) {unused}"


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """Module-level private names (one leading underscore) bound by def,
    class or assignment, with their lines."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        names.update({name: node.lineno for name in bound
                      if name.startswith("_") and not name.startswith("__")})
    return names


def loaded_names(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_private_name_is_read(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unread = {name: line for name, line in private_definitions(tree).items()
              if name not in loaded_names(tree)}
    assert not unread, f"{path.name}: private names never read (name: line) {unread}"


def imported_modules(tree: ast.Module) -> set[str]:
    """Absolute module names of the import statements of a module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module)
    return names


def test_every_test_dependency_is_declared():
    """A fresh `pip install .[test]` can collect every test module: each
    third-party top-level import of tests/*.py is a dependency or in the
    test extra (the import names of these packages are their names)."""
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    project = tomllib.loads((TESTS.parent / "pyproject.toml").read_text(encoding="utf-8"))
    requirements = project["project"]["dependencies"] \
        + project["project"]["optional-dependencies"]["test"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req)[0].lower().replace("-", "_")
                for req in requirements}
    undeclared = {}
    for path in sorted(TESTS.glob("*.py")):
        for name in imported_modules(ast.parse(path.read_text(encoding="utf-8"))):
            top = name.split(".")[0]
            if top not in sys.stdlib_module_names and top != "uncrel" and top not in declared:
                undeclared.setdefault(top, path.name)
    assert not undeclared, f"imported by tests but not declared (name: file) {undeclared}"
