"""The public surface: each module's __all__ lists exactly the public
functions and classes it defines, the package re-exports the library
modules' lists, and no module imports a name it never uses."""

import ast
import importlib
from pathlib import Path

import pytest

import wolstenholme

SRC = Path(wolstenholme.__file__).parent
FILES = sorted(SRC.glob("*.py"))
MODULES = [p.stem for p in FILES if p.stem not in ("__init__", "__main__")]


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), str(path))


@pytest.mark.parametrize("name", MODULES)
def test_all_is_the_public_definitions(name):
    module = importlib.import_module(f"wolstenholme.{name}")
    defined = {
        node.name
        for node in _tree(SRC / f"{name}.py").body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    }
    assert len(set(module.__all__)) == len(module.__all__)
    assert set(module.__all__) == defined


def test_package_all_resolves():
    names = wolstenholme.__all__
    assert len(set(names)) == len(names)  # no name exported twice
    namespace: dict = {}
    exec("from wolstenholme import *", namespace)  # AttributeError on a dangling name
    assert all(namespace[n] is getattr(wolstenholme, n) for n in names)


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = _tree(path)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names if a.name != "*"}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []
