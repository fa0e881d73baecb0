"""The public surface: each module's __all__ lists exactly the public
functions and classes it defines, the package re-exports the library
modules' lists, no module imports a name it never uses or imports below
its top level, every private top-level name has a caller in the package,
every public one a caller in the package, an acceptance criterion or the
benchmark's tracer, only search reads the record format or judges a
stream, only cli's main turns an error into exit 2, every error type has a
handler in the package, every check of a claim survives ``python -O``,
each failure clause is raised at one site, no JSON is spelled by hand,
and the README's library example runs."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import wolstenholme
from wolstenholme import errors

SRC = Path(wolstenholme.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
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


def _private_definitions(tree: ast.Module):
    """(name, statement) for each private top-level function, class or constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _referenced(node: ast.AST) -> set[str]:
    """Every name that node reads, imports or looks up as an attribute."""
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.alias):
            names.add(n.name)
    return names


def test_every_private_name_is_used():
    # references from tests, and from inside the definition itself (a
    # recursive call), do not count
    trees = [_tree(path) for path in FILES]
    uses = {id(node): _referenced(node) for tree in trees for node in tree.body}
    unused = [
        f"{path.name}:{name}"
        for path, tree in zip(FILES, trees)
        for name, definition in _private_definitions(tree)
        if not any(name in names for key, names in uses.items() if key != id(definition))
    ]
    assert unused == []


def _traced() -> set[str]:
    """The "module.function" names perfbench's tracer wraps, read from its
    TRACED table without importing it."""
    tree = _tree(ROOT / "perfbench" / "tracer.py")
    table = next(
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets)
    )
    return {f"{module}.{name}" for module, name, _ in ast.literal_eval(table)}


def test_every_public_name_has_a_caller():
    # a caller is code in the package outside the definition itself, an
    # acceptance criterion, or the benchmark's tracer, which looks each
    # traced name up by getattr; unit tests do not count
    trees = [_tree(path) for path in FILES]
    uses = {id(node): _referenced(node) for tree in trees for node in tree.body}
    accepted = _referenced(_tree(ROOT / "tests" / "test_acceptance.py"))
    traced = _traced()
    orphans = [
        f"{path.stem}.{node.name}"
        for path, tree in zip(FILES, trees)
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and not any(node.name in names for key, names in uses.items() if key != id(node))
        and node.name not in accepted
        and f"{path.stem}.{node.name}" not in traced
    ]
    assert orphans == []


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_imports_at_module_level(path):
    # an import inside a function hides a dependency from the module's head
    tree = _tree(path)
    top = {id(node) for node in tree.body}
    nested = [
        n.lineno
        for n in ast.walk(tree)
        if isinstance(n, (ast.Import, ast.ImportFrom)) and id(n) not in top
    ]
    assert nested == []


def _reads_records(node: ast.AST) -> bool:
    """An import of csv, or a reference to json.loads."""
    if isinstance(node, ast.Import):
        return any(a.name == "csv" for a in node.names)
    if isinstance(node, ast.ImportFrom):
        return node.module == "csv" or (
            node.module == "json" and any(a.name == "loads" for a in node.names)
        )
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "loads"
        and isinstance(node.value, ast.Name)
        and node.value.id == "json"
    )


def test_only_search_reads_records():
    # the record format lives in search, so report cannot grow a parser of
    # its own; checkpoints are read with json.load, not json.loads
    readers = [p.name for p in FILES if any(map(_reads_records, ast.walk(_tree(p))))]
    assert readers == ["search.py"]


def test_cli_takes_no_records():
    # report prints what search.check_stream finds; it decodes and judges nothing
    assert _referenced(_tree(SRC / "cli.py")) & {"read_records", "ScanRecord"} == set()


def _returns_two(node: ast.AST) -> list[int]:
    return sorted(
        n.lineno
        for n in ast.walk(node)
        if isinstance(n, ast.Return) and isinstance(n.value, ast.Constant) and n.value.value == 2
    )


def test_cli_exits_two_only_in_main():
    # a command raises its usage or checkpoint error; main prints it and exits 2
    tree = _tree(SRC / "cli.py")
    main = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "main")
    assert _returns_two(tree) == _returns_two(main) != []


def test_every_error_type_is_caught():
    # an error type is kept only for a handler that acts on it; a failure
    # nothing tells apart from ValueError or AssertionFailure is one of those
    caught = {
        name
        for path in FILES
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.ExceptHandler) and node.type is not None
        for name in _referenced(node.type)
    }
    assert sorted(set(errors.__all__) - caught) == []


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_no_bare_assert(path):
    # python -O strips assert statements; a check of a claim must raise
    asserts = [n.lineno for n in ast.walk(_tree(path)) if isinstance(n, ast.Assert)]
    assert asserts == []


def test_each_failure_clause_is_raised_at_one_site():
    # a claim is checked in one place, so its clause names one line of src/
    sites: dict[str, list[str]] = {}
    for path in FILES:
        for node in ast.walk(_tree(path)):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "AssertionFailure"
            ):
                clause = node.args[0]
                assert isinstance(clause, ast.Constant), f"{path.name}:{node.lineno}"
                sites.setdefault(clause.value, []).append(f"{path.name}:{node.lineno}")
    assert len(sites) > 1
    assert {c: s for c, s in sites.items() if len(s) > 1} == {}


def _docstrings(tree: ast.Module) -> set[int]:
    """The ids of the docstring constants of the module, classes and functions."""
    return {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_json_is_written_by_json_dumps(path):
    # a quoted member name and its colon, as in '{"scan":', is JSON spelled by
    # hand beside the json.dumps that writes it; docstrings may show JSON
    tree = _tree(path)
    exempt = _docstrings(tree)
    spelled = [
        f"{n.lineno}: {n.value!r}"
        for n in ast.walk(tree)
        if isinstance(n, ast.Constant)
        and isinstance(n.value, str)
        and id(n) not in exempt
        and re.search(r'"\w+"\s*:', n.value)
    ]
    assert spelled == []


_FORGED_FORM4 = """
import sys
from wolstenholme.errors import AssertionFailure
from wolstenholme.symmetric import S2Diagonal, form4_eval, s2_diagonals

row = list(s2_diagonals(3))[3]
forged = S2Diagonal(3, (1,) + row.entries[1:])  # forged S2(3, 0) = 1

try:
    form4_eval(5, 3, forged)
except AssertionFailure as exc:
    print(sys.flags.optimize, exc.clause)
"""


def test_forged_table_raises_under_optimize():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC.parent), env.get("PYTHONPATH")])
    )
    r = subprocess.run(
        [sys.executable, "-O", "-c", _FORGED_FORM4],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert (r.returncode, r.stdout) == (0, "1 S2(k, 0) is nonzero\n"), r.stderr


def test_readme_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
