"""Tests of the benchmark itself, on the workloads' tiny configs.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json

import pytest

import run
from tracer import Tracer

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def emitted(result: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.fixture(scope="module")
def traced() -> dict[str, list[dict]]:
    """Two traced tiny runs per workload."""
    return {w: [run.measure(w, 0, 0, True, tiny=True)[0] for _ in range(2)]
            for w in run.WORKLOADS}


def test_workloads_match_benchmark_json():
    assert sorted(run.WORKLOADS) == sorted(w["name"] for w in BENCHMARK["workloads"])


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_end_to_end_metrics_emitted_and_outputs_correct(workload, seed):
    result, record = run.measure(workload, seed, 0, False, tiny=True, setup_repeats=1)
    assert emitted(result) == declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert record["machine"]["nproc"] >= 1 and record["seed"] == seed


def test_per_layer_metrics_emitted(traced):
    for results in traced.values():
        for result in results:
            assert emitted(result) == declared("per_layer")
            assert result["correct"] and result["failed"] == 0


def test_traced_counts_repeat(traced):
    for first, second in traced.values():
        counts = [{k: m["value"] for k, m in r["metrics"].items() if m["unit"] == "count"}
                  for r in (first, second)]
        assert counts[0] == counts[1]


def test_maxwell_is_all_periodic_fd_and_no_quadrature(traced):
    m = {k: v["value"] for k, v in traced["maxwell-4d"][0]["metrics"].items()}
    assert m["chart.quad.nodes"] == 0 and m["chart.quad.calls"] == 0
    assert m["chart.fd.periodic"] == m["chart.fd.calls"] == m["chart.fd.points"] > 0
    assert 0 < m["chart.fd.nested"] < m["chart.fd.calls"]


def test_null_stress_reaches_quadrature_and_pairing(traced):
    m = {k: v["value"] for k, v in traced["null-stress"][0]["metrics"].items()}
    assert m["chart.fd.periodic"] == 0
    assert m["chart.fd.interior"] + m["chart.fd.onesided"] == m["chart.fd.points"]
    assert m["stress.pairings"] == m["chart.quad.nodes"] > 0


def test_tracer_restores_every_binding():
    import jetstress
    from jetstress import chart, forms, stress

    before = (chart.partial_derivative, stress.partial_derivative, forms.partial_derivative,
              jetstress.integrate_volume, chart.ScalarField.__call__)
    with Tracer():
        assert stress.partial_derivative is not before[1]
        assert stress.partial_derivative is forms.partial_derivative
    after = (chart.partial_derivative, stress.partial_derivative, forms.partial_derivative,
             jetstress.integrate_volume, chart.ScalarField.__call__)
    assert all(a is b for a, b in zip(before, after))


GOOD = {"scenario": "hyperelastic_1d_bar", "config": {}, "pass": True, "checks": [
    {"name": "interior", "value": 1e-9, "tolerance": 1e-6, "comparator": "le", "pass": True},
    {"name": "boundary", "value": 1e-9, "tolerance": 1e-6, "comparator": "le", "pass": True},
    {"name": "sensitivity", "value": 1.0, "tolerance": 5e-3, "comparator": "ge", "pass": True},
]}


def variant(index: int = 0, **fields) -> str:
    report = json.loads(json.dumps(GOOD))
    report["checks"][index].update(fields)
    return json.dumps(report)


@pytest.mark.parametrize("code, text, failed", [
    (0, variant(), 0),
    (1, variant(), 3),
    (0, variant(value=float("nan")), 3),
    (0, variant(name="renamed"), 3),
    (0, variant(1, **{"pass": False}), 1),
    (0, variant(2, value=1e-4), 1),
    (0, variant(2, value="big"), 3),
    (0, "not json", 3),
    (0, "[]", 3),
])
def test_check_report(code, text, failed):
    assert run.check_report("hyperelastic_1d_bar", {}, code, text) == (3, failed)


def test_refuses_to_run_without_sources(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path)
    assert run.main(["--workload", "maxwell-4d"]) != 0
    assert capsys.readouterr().out == ""
