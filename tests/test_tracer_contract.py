"""The benchmark's tracer patches the per-point methods its `METHODS` table
names, (module, class, method), with `vars(cls)[method]`.  A rename in the
library would crash a traced run, so each entry is checked here, reading the
table from the tracer's source without importing it.

Its `CHART_LAYERS` and `COUNTERS` tables are keyed by name too, but a rename
there raises nothing: the renamed function goes untraced and its layer's
count reads zero.  Their keys are checked the same way.

A counter reads its rows off a fixed argument position (`args[2]`, or an
attribute of it such as `args[1].X`), and the tracer counts one row for
anything that is not a 2-D array, so a reordered signature would miscount
silently.  Each position is checked against the traced signature."""
from __future__ import annotations

import ast
import importlib
import inspect
import typing
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


def positional_reads() -> list[tuple[str, int, str | None]]:
    """(counted name, position, attribute read off it or None) for every
    `args[i]` that a `COUNTERS` entry reads."""
    table = tracer_table("COUNTERS")
    reads = []
    for key, value in zip(table.keys, table.values):
        parents = {id(child): node for node in ast.walk(value)
                   for child in ast.iter_child_nodes(node)}
        for node in ast.walk(value):
            if isinstance(node, ast.Subscript) and getattr(node.value, "id", None) == "args":
                parent = parents.get(id(node))
                attr = parent.attr if isinstance(parent, ast.Attribute) else None
                reads.append((ast.literal_eval(key), ast.literal_eval(node.slice), attr))
    return reads


def traced_object(qualified: str):
    """The function or the method, as its class defines it, that a tracer
    table names."""
    module, *path = qualified.split(".")
    owner = importlib.import_module(f"jetstress.{module}")
    return getattr(owner, path[0]) if len(path) == 1 else vars(getattr(owner, path[0]))[path[1]]


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


def test_counters_read_positions_that_exist():
    # the chart counters read only the result; every other one reads an
    # argument, so a read the parse above misses fails here
    named = {name for name, _, _ in positional_reads()}
    assert named == {n for n in counted_names() if not n.startswith("chart.")}


@pytest.mark.parametrize("qualified, position, attr", positional_reads())
def test_counter_reads_the_points_at_their_position(qualified, position, attr):
    # args holds the bound instance first for a method, as the signature of
    # the function its class defines does
    fn = traced_object(qualified)
    params = list(inspect.signature(fn).parameters.values())
    assert position < len(params), f"{qualified} has no argument {position}"
    param = params[position]
    assert param.kind in (param.POSITIONAL_ONLY, param.POSITIONAL_OR_KEYWORD)
    if attr is None:
        assert param.name == "X", f"argument {position} of {qualified} is {param.name}, not X"
    else:
        record = typing.get_type_hints(fn)[param.name]
        assert attr in getattr(record, "_fields", ()), \
            f"argument {position} of {qualified}, a {record.__name__}, has no {attr}"
