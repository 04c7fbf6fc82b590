"""Every public top-level function and class of the library has a caller.

A name counts as used when some module of `src/jetstress` or `tests/`, other
than the package `__init__.py`, refers to it in code (a name, an attribute or
an import) outside its own definition.  Re-exporting a name from
`__init__.py` does not count: that is where dead code hides.
"""
from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "jetstress"


def _sources() -> list[Path]:
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    return [p for p in files if p.name != "__init__.py"]


def _definitions(tree: ast.Module) -> list[ast.AST]:
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")]


def _references(node: ast.AST, skip: set[int]) -> set[str]:
    """Names referred to under `node`, not descending into the nodes in `skip`."""
    names: set[str] = set()
    stack = [node]
    while stack:
        cur = stack.pop()
        if id(cur) in skip:
            continue
        if isinstance(cur, ast.Name):
            names.add(cur.id)
        elif isinstance(cur, ast.Attribute):
            names.add(cur.attr)
        elif isinstance(cur, ast.alias):
            names.add(cur.name.split(".")[-1])
        stack.extend(ast.iter_child_nodes(cur))
    return names


def unused_public_names() -> list[str]:
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in _sources()}
    unused = []
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for definition in _definitions(tree):
            used = any(definition.name in _references(other, {id(definition)})
                       for other in trees.values())
            if not used:
                unused.append(f"{path.stem}.{definition.name}")
    return sorted(unused)


def test_every_public_definition_is_used():
    assert unused_public_names() == []
