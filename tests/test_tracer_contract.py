"""The benchmark's tracer patches the per-point methods its `METHODS` table
names, (module, class, method), with `vars(cls)[method]`.  A rename in the
library would crash a traced run, so each entry is checked here, reading the
table from the tracer's source without importing it.

Its `CHART_LAYERS` and `COUNTERS` tables are keyed by name too, but a rename
there raises nothing: the renamed function goes untraced and its layer's
count reads zero.  Their keys are checked the same way."""
from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def tracer_table(name: str) -> ast.expr:
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return node.value
    raise AssertionError(f"no {name} table in {TRACER}")


def traced_methods() -> list[tuple[str, str, str]]:
    return list(ast.literal_eval(tracer_table("METHODS")))


def chart_layers() -> list[str]:
    return list(ast.literal_eval(tracer_table("CHART_LAYERS")))


def counted_names() -> list[str]:
    # the values hold lambdas, so only the keys are literals
    return [ast.literal_eval(key) for key in tracer_table("COUNTERS").keys]


def assert_defined_on_class(module: str, cls_name: str, method: str) -> None:
    # an alias such as BodyForceDensity = Section resolves to the class that
    # defines the method, which is what the tracer patches
    cls = getattr(importlib.import_module(f"jetstress.{module}"), cls_name, None)
    assert isinstance(cls, type), f"jetstress.{module}.{cls_name} is not a class"
    assert method in vars(cls), f"{method} is not defined on {cls.__qualname__}"


@pytest.mark.parametrize("module, cls_name, method", traced_methods())
def test_traced_method_is_defined_on_its_class(module, cls_name, method):
    assert_defined_on_class(module, cls_name, method)


@pytest.mark.parametrize("name", chart_layers())
def test_chart_layer_is_a_public_chart_function(name):
    # the tracer wraps only public functions that chart itself defines
    chart = importlib.import_module("jetstress.chart")
    obj = getattr(chart, name, None)
    assert not name.startswith("_") and inspect.isfunction(obj), f"chart.{name} is not a function"
    assert obj.__module__ == chart.__name__, f"chart.{name} is defined in {obj.__module__}"


@pytest.mark.parametrize("qualified", counted_names())
def test_counter_names_a_traced_function_or_method(qualified):
    module, *path = qualified.split(".")
    if len(path) == 1:
        obj = getattr(importlib.import_module(f"jetstress.{module}"), path[0], None)
        assert inspect.isfunction(obj), f"{qualified} is not a function"
    else:
        assert_defined_on_class(module, *path)
