"""Every check value of every REGISTRY row, at a small config and seed 0, is
bitwise equal to the value recorded in `golden_values.json`.

A change that moves any bit of any check value fails here.  The values depend
on numpy's and the machine's floating-point kernels, so the fixture records
the numpy version and `platform.machine()` it was made with, and the test
skips on any other.  When a change of bits is intended, and CHANGES.md names
each changed value, regenerate the fixture with

    PYTHONPATH=src python tests/test_golden_values.py
"""
from __future__ import annotations

import json
import platform
from pathlib import Path

import numpy as np
import pytest

from jetstress.scenarios import REGISTRY, ScenarioConfig, run_scenario

FIXTURE = Path(__file__).with_name("golden_values.json")
# small enough that the whole registry runs in a fraction of a second
CAPS = {"count": 2, "samples": 5}
SAMPLES = {"maxwell_vacuum": 4}


def small_config(scenario: str) -> ScenarioConfig:
    _, defaults, _ = REGISTRY[scenario]
    keys = {k: min(v, CAPS[k]) for k, v in defaults.items() if k in CAPS}
    if "samples" in keys:
        keys["samples"] = SAMPLES.get(scenario, keys["samples"])
    return ScenarioConfig(scenario, seed=0, **keys)


def environment() -> dict[str, str]:
    return {"numpy": np.__version__, "machine": platform.machine()}


def check_values() -> dict[str, list[list[str]]]:
    """scenario -> [[check name, repr of its value], ...] in report order."""
    return {sc: [[c.name, repr(c.value)] for c in run_scenario(small_config(sc)).checks]
            for sc in REGISTRY}


def test_check_values_are_bitwise_golden():
    golden = json.loads(FIXTURE.read_text(encoding="utf-8"))
    if golden["environment"] != environment():
        pytest.skip(f"golden values were recorded with {golden['environment']}, "
                    f"this is {environment()}")
    assert check_values() == golden["values"]


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps({"environment": environment(), "values": check_values()},
                                  indent=1) + "\n", encoding="utf-8")
