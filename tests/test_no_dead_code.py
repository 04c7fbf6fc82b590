"""Every public top-level function and class of the library has a caller,
and every parameter of a library function is read.

A name counts as used when some module of `src/jetstress` or `tests/`, other
than the package `__init__.py`, refers to it in code (a name, an attribute or
an import) outside its own definition.  Re-exporting a name from
`__init__.py` does not count: that is where dead code hides.

A parameter counts as read when the body of its function loads it.  `self`
and `cls` are exempt, and lambdas are left out: a constant loading must still
accept `(X, x)` to fit the field protocol.

A parameter with a default counts as overridden when some call in `src/` or
`tests/` of a function or method of that name passes it: by position
(counting from after `self` or `cls`), by keyword, or through `*` or `**`.
A default that no call overrides is a constant spelled as an option, and
one that every call overrides is never used: each default needs a call that
passes it and a call that omits it.

A `@dataclass` earns its creation cost by validating in `__post_init__` or
by defining a method that is not a property; a record that only carries
data is a `typing.NamedTuple`.
"""
from __future__ import annotations

import ast
import math
from pathlib import Path
from typing import Iterator

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


def _library_functions() -> Iterator[tuple[str, ast.FunctionDef | ast.AsyncFunctionDef]]:
    """(module name, definition) of every function and method of the library."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield path.stem, node


def unread_parameters() -> list[str]:
    found = []
    for module, node in _library_functions():
        a = node.args
        params = {p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
                  if p is not None} - {"self", "cls"}
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found += [f"{module}.{node.name}({p})" for p in sorted(params - read)]
    return sorted(found)


def _passed(call: ast.Call) -> tuple[float, set[str]]:
    """How many leading positions and which keywords a call passes; a `*`
    argument passes every position and a `**` one every keyword ("*")."""
    positions = math.inf if any(isinstance(a, ast.Starred) for a in call.args) else len(call.args)
    names = {k.arg for k in call.keywords}
    return positions, {"*"} if None in names else names


def _default_passes() -> Iterator[tuple[str, list[bool]]]:
    """Each defaulted parameter, as "module.function(parameter)", with
    whether each call in `src/` or `tests/` of a function or method of that
    name passes it."""
    calls: dict[str, list[tuple[float, set[str]]]] = {}
    for path in _sources():
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(_passed(node))
    for module, node in _library_functions():
        a = node.args
        positional = [p.arg for p in (*a.posonlyargs, *a.args)]
        if positional[:1] in (["self"], ["cls"]):
            positional = positional[1:]
        first = len(positional) - len(a.defaults)
        defaulted = [(p, i) for i, p in enumerate(positional) if i >= first]
        defaulted += [(p.arg, math.inf) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
        for p, i in defaulted:
            yield f"{module}.{node.name}({p})", [i < n or p in names or "*" in names
                                                 for n, names in calls.get(node.name, [])]


def defaults_never_overridden() -> list[str]:
    """Parameters with a default that no call of a function or method of
    that name passes."""
    return sorted(param for param, passes in _default_passes() if not any(passes))


def defaults_never_omitted() -> list[str]:
    """Parameters with a default that every call of a function or method of
    that name passes: the default is never used."""
    return sorted(param for param, passes in _default_passes() if passes and all(passes))


def _decorators(node: ast.ClassDef | ast.FunctionDef) -> set[str | None]:
    """Names of a definition's decorators, called or not."""
    return {getattr(d.func if isinstance(d, ast.Call) else d, "id", None)
            for d in node.decorator_list}


def plain_dataclasses() -> list[str]:
    """Dataclasses of the library whose body defines no method but properties."""
    return sorted(f"{path.stem}.{node.name}" for path in sorted(PACKAGE.glob("*.py"))
                  for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                  if isinstance(node, ast.ClassDef) and "dataclass" in _decorators(node)
                  and not any(isinstance(item, ast.FunctionDef)
                              and "property" not in _decorators(item) for item in node.body))


def test_every_public_definition_is_used():
    assert unused_public_names() == []


def test_every_parameter_is_read():
    assert unread_parameters() == []


def test_every_default_is_overridden():
    assert defaults_never_overridden() == []


def test_every_default_is_relied_on():
    assert defaults_never_omitted() == []


def test_every_dataclass_validates_or_has_a_method():
    assert plain_dataclasses() == []
