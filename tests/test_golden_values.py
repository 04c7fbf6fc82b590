"""Every check value of every REGISTRY row, at a small config and seed 0 and
at its default config and seeds 0 and 3, is bitwise equal to the value
recorded in `golden_values.json`.

Four scenarios are pinned at d = 2, m = 3 as well, since every REGISTRY
default has d = m and a convention error that keeps shapes consistent (a sign,
a transposed square block) shows only where they differ.

A change that moves any bit of any check value fails here.  The values depend
on numpy's and the machine's floating-point kernels, so the fixture records
the numpy version, `platform.machine()` and the SIMD target numpy dispatches
float64 `sin`, `cos` and `exp` to on this CPU, and the test skips on any
other, or where numpy cannot report its dispatch.  They must not depend on
the BLAS thread count, which the second test checks in two subprocesses.
When a change of bits is intended, and CHANGES.md names each changed value,
regenerate the fixture with

    PYTHONPATH=src python tests/test_golden_values.py
"""
from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from jetstress.scenarios import REGISTRY, ScenarioConfig, run_scenario

FIXTURE = Path(__file__).with_name("golden_values.json")
# small enough that the whole registry runs in a fraction of a second; its
# defaults at two seeds add about 0.6 s
CAPS = {"count": 2, "samples": 5}
SAMPLES = {"maxwell_vacuum": 4}
# pinned again at d = 2, m = 3
D_NOT_M = ("exterior_jet_identity", "divergence_identity", "weak_strong", "null_stress")
# every REGISTRY default is pinned at these seeds too
DEFAULT_SEEDS = (0, 3)


def small_config(scenario: str) -> ScenarioConfig:
    _, defaults, _ = REGISTRY[scenario]
    keys = {k: min(v, CAPS[k]) for k, v in defaults.items() if k in CAPS}
    if "samples" in keys:
        keys["samples"] = SAMPLES.get(scenario, keys["samples"])
    return ScenarioConfig(scenario, seed=0, **keys)


def golden_configs() -> dict[str, ScenarioConfig]:
    configs = {sc: small_config(sc) for sc in REGISTRY}
    configs.update({f"{sc} d=2 m=3": replace(small_config(sc), d=2, m=3) for sc in D_NOT_M})
    configs.update({f"{sc} default seed={seed}": ScenarioConfig(sc, seed=seed)
                    for sc in REGISTRY for seed in DEFAULT_SEEDS})
    return configs


def environment() -> dict:
    """numpy version, machine, and the SIMD target of float64 sin, cos and exp
    (None where numpy cannot say)."""
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:
        simd = None
    else:
        info = opt_func_info(func_name="^(sin|cos|exp)$")
        simd = {f: info.get(f, {}).get("dd", {}).get("current") for f in ("sin", "cos", "exp")}
    return {"numpy": np.__version__, "machine": platform.machine(), "simd": simd}


def check_values() -> dict[str, list[list[str]]]:
    """config key -> [[check name, repr of its value], ...] in report order."""
    return {key: [[c.name, repr(c.value)] for c in run_scenario(cfg).checks]
            for key, cfg in golden_configs().items()}


def test_check_values_are_bitwise_golden():
    golden = json.loads(FIXTURE.read_text(encoding="utf-8"))
    env = environment()
    if env["simd"] is None:
        pytest.skip("this numpy cannot report its SIMD dispatch")
    if golden["environment"] != env:
        pytest.skip(f"golden values were recorded with {golden['environment']}, this is {env}")
    assert check_values() == golden["values"]


def test_check_values_do_not_depend_on_the_blas_thread_count():
    # 32 768 volume nodes: above the length at which OpenBLAS splits a dot
    # product across threads, which would sum it in another order
    script = ("from jetstress.scenarios import ScenarioConfig, run_scenario\n"
              "cfg = ScenarioConfig('stokes', d=3, panels=4, count=2)\n"
              "print([repr(c.value) for c in run_scenario(cfg).checks])")

    def values(threads: str) -> str:
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "MKL_NUM_THREADS": threads}
        return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, check=True, timeout=120).stdout

    assert values("1") == values("2")


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps({"environment": environment(), "values": check_values()},
                                  indent=1) + "\n", encoding="utf-8")
