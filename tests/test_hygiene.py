"""Static hygiene of the package, read with the stdlib ast module: no
module in src/polysolve keeps an unused top-level import, or a private
top-level function or class that nothing in the package references."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "polysolve"
MODULES = sorted(PACKAGE.glob("*.py"))


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _references(tree: ast.AST) -> set[str]:
    """Names read in tree: bare names, attribute names and names imported
    from another module."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


# __init__.py is left out: its imports are the public API
@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_no_unused_top_level_import(path):
    tree = _parse(path)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for stmt in tree.body:
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in read:
                    unused.append(bound)
    assert not unused, f"{path.name}: unused imports {unused}"


def test_no_unreferenced_private_definition():
    trees = {path.name: _parse(path) for path in MODULES}
    referenced = set().union(*(_references(tree) for tree in trees.values()))
    dead = [
        f"{name}:{stmt.name}"
        for name, tree in trees.items()
        for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and stmt.name.startswith("_")
        and not stmt.name.startswith("__")
        and stmt.name not in referenced
    ]
    assert not dead, f"private definitions nothing references: {dead}"
