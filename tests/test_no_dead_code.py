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


def _is_public_definition(node: ast.AST) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")


def _references(node: ast.AST) -> set[str]:
    """Names referred to under `node`: names, attributes and imported names."""
    names: set[str] = set()
    for cur in ast.walk(node):
        if isinstance(cur, ast.Name):
            names.add(cur.id)
        elif isinstance(cur, ast.Attribute):
            names.add(cur.attr)
        elif isinstance(cur, ast.alias):
            names.add(cur.name.split(".")[-1])
    return names


def unused_public_names() -> list[str]:
    """Each top-level statement's names are collected once; a public
    definition is used when any statement but itself refers to it."""
    statements = [(path, node, _references(node)) for path in _sources()
                  for node in ast.parse(path.read_text(encoding="utf-8")).body]
    return sorted(f"{path.stem}.{node.name}" for path, node, _ in statements
                  if path.parent == PACKAGE and _is_public_definition(node)
                  and not any(node.name in names
                              for _, other, names in statements if other is not node))


def test_every_public_definition_is_used():
    assert unused_public_names() == []
