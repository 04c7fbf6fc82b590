"""The benchmark's tracer patches the per-point methods its `METHODS` table
names, (module, class, method), with `vars(cls)[method]`.  A rename in the
library would crash a traced run, so each entry is checked here, reading the
table from the tracer's source without importing it."""
from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def traced_methods() -> list[tuple[str, str, str]]:
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "METHODS" for t in node.targets):
            return list(ast.literal_eval(node.value))
    raise AssertionError(f"no METHODS table in {TRACER}")


@pytest.mark.parametrize("module, cls_name, method", traced_methods())
def test_traced_method_is_defined_on_its_class(module, cls_name, method):
    # an alias such as BodyForceDensity = Section resolves to the class that
    # defines the method, which is what the tracer patches
    cls = getattr(importlib.import_module(f"jetstress.{module}"), cls_name, None)
    assert isinstance(cls, type), f"jetstress.{module}.{cls_name} is not a class"
    assert method in vars(cls), f"{method} is not defined on {cls.__qualname__}"
