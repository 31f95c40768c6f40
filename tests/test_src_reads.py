"""`src/` holds only what production reads.

Every module-level function, class and constant of the package is read
somewhere in `src/` besides its definition, and every parameter of a function
in `src/` is read in that function's body, or the name is listed in UNREAD
with the reason it stays. Test hooks and oracles live in `tests/` instead. The
third-party packages `src/` imports are the ones `pyproject.toml` declares.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "stockfuse"

UNREAD = {
    ("autodiff", "sigmoid"): "tests/reference.py's gates and perfbench/trace.py's patch read it; "
                             "it goes once the tracer stops patching it (ROADMAP item 1)",
    ("metrics", "chance_band"): "perfbench/workloads.py's one-epoch chance check reads it",
    ("data", "build_dataset", "graph"): "perfbench/workloads.py passes it positionally; it "
                                        "goes with the next change to the benchmark",
}


def _defined(tree: ast.Module):
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            yield stmt.name
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def _read(tree: ast.Module):
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.ImportFrom):
            yield from (alias.name for alias in n.names)


def _unread():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    read = {name for tree in trees.values() for name in _read(tree)}
    return {
        (module, name)
        for module, tree in trees.items()
        for name in _defined(tree)
        if name not in read and not name.startswith("__")
    }


def _unread_parameters():
    """(module, function, parameter) of each parameter its function's body never loads."""
    unread = set()
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            a = fn.args
            params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
                      if p is not None]
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            loaded = {n.id for stmt in body for n in ast.walk(stmt)
                      if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            name = getattr(fn, "name", "<lambda>")
            unread.update((path.stem, name, p) for p in params if p not in loaded)
    return unread


def test_every_module_level_name_is_read_in_src():
    assert _unread() - set(UNREAD) == set()


def test_every_parameter_is_read_in_its_function():
    assert _unread_parameters() - set(UNREAD) == set()


def test_unread_allowlist_is_current():
    """An entry whose name is gone, or now read in `src/`, is dropped."""
    assert set(UNREAD) - _unread() - _unread_parameters() == set()


def test_third_party_imports_are_the_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    imported = set()
    for path in SRC.glob("*.py"):
        for n in ast.walk(ast.parse(path.read_text())):
            if isinstance(n, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in n.names)
            elif isinstance(n, ast.ImportFrom) and n.level == 0:
                imported.add(n.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"stockfuse"}
    with open(ROOT / "pyproject.toml", "rb") as fh:
        dependencies = tomllib.load(fh)["project"]["dependencies"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", d).group().lower().replace("-", "_")
                for d in dependencies}
    assert third_party == declared
