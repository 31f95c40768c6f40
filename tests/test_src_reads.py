"""`src/` holds only what production reads.

Every module-level function, class and constant of the package is read
somewhere in `src/` besides its definition, or is listed in UNREAD with the
reason it stays. Test hooks and oracles live in `tests/` instead.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "stockfuse"

UNREAD = {
    ("autodiff", "sigmoid"): "tests/reference.py's gates and perfbench/trace.py's patch read it; "
                             "it goes once the tracer stops patching it (ROADMAP item 1)",
    ("metrics", "chance_band"): "perfbench/workloads.py's one-epoch chance check reads it",
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


def test_every_module_level_name_is_read_in_src():
    assert _unread() - set(UNREAD) == set()


def test_unread_allowlist_is_current():
    """An entry whose name is gone, or now read in `src/`, is dropped."""
    assert set(UNREAD) - _unread() == set()
