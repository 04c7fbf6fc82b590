"""End-to-end acceptance gate.

Each test covers one verification criterion at desk scale, pins its
tolerance explicitly, and emits a single pass/fail line (replayed in the
terminal summary, see conftest.py).  Criteria 01-05, 07 and 09 run registry
scenarios at pinned seeds, dimensions and case counts and compare the
reported check values against the gate's own tolerances, never the
scenario's verdict, so loosening a scenario's tolerance cannot pass them.
"""
import json
import subprocess
import sys
import time

from conftest import record_verdict

import numpy as np

from jetstress.cli import main, report_to_dict, emit_report
from jetstress.material import LagrangianDensity, constitutive_from_lagrangian
from jetstress.scenarios import ScenarioConfig, run_scenario
from jetstress.sections import JetPoint


def verdict(name: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    record_verdict(line)
    print(line)
    assert ok, line


def dims_cycle(count: int):
    combos = [(1, 1), (1, 2), (2, 1), (2, 2)]
    return [combos[k % 4] for k in range(count)]


def check_values(configs, expected: int) -> list[float]:
    """Check values of the registry runs, in order.  The count is asserted,
    so that a dropped check cannot pass vacuously."""
    values = [c.value for cfg in configs for c in run_scenario(cfg).checks]
    assert len(values) == expected, f"expected {expected} check values, got {len(values)}"
    return values


def test_criterion_01_stokes_oracle():
    t0 = time.perf_counter()
    worst = max(check_values((ScenarioConfig("stokes", seed=d, d=d, count=20)
                              for d in (1, 2, 3)), 60))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 5.0
    verdict("criterion-01 stokes-oracle", ok,
            f"max residual {worst:.3e} (tol 1e-06), {elapsed:.2f}s (< 5s)")


def test_criterion_02_exterior_jet_identity():
    worst = max(check_values((ScenarioConfig("exterior_jet_identity", seed=100 + k,
                                             d=d, m=m, count=1)
                              for k, (d, m) in enumerate(dims_cycle(20))), 20))
    verdict("criterion-02 exterior-jet-identity", worst <= 1e-6,
            f"max pointwise residual {worst:.3e} (tol 1e-06)")


def test_criterion_03_divergence_identity():
    worst = max(check_values((ScenarioConfig("divergence_identity", seed=200 + k,
                                             d=d, m=m, count=1)
                              for k, (d, m) in enumerate(dims_cycle(20))), 20))
    verdict("criterion-03 divergence-identity", worst <= 1e-6,
            f"max pointwise residual {worst:.3e} (tol 1e-06)")


def test_criterion_04_weak_strong_equivalence():
    worst = max(check_values((ScenarioConfig("weak_strong", seed=300 + k, d=2, m=2, count=1)
                              for k in range(20)), 20))
    verdict("criterion-04 weak-strong-equivalence", worst <= 1e-6,
            f"max residual {worst:.3e} (tol 1e-06)")


def test_criterion_05_null_stress_indeterminacy():
    cfg = ScenarioConfig("null_stress", seed=42, d=2, m=2, q=8, panels=4, samples=9, count=10)
    checks = run_scenario(cfg).checks
    powers = [c.value for c in checks if c.name.startswith("power_")]
    magnitudes = [c.value for c in checks if c.name.startswith("magnitude_")]
    assert (len(powers), len(magnitudes)) == (10, 10)
    worst_power, min_magnitude = max(powers), min(magnitudes)
    ok = worst_power <= 1e-8 and min_magnitude >= 0.1
    verdict("criterion-05 null-stress-indeterminacy", ok,
            f"max |power| {worst_power:.3e} (tol 1e-08), "
            f"min stress magnitude {min_magnitude:.3f} (>= 0.1)")


def test_criterion_06_hyperelastic_vertical_derivative():
    quad = LagrangianDensity(lambda jp: 0.5 * float(jp.xprime[0, 0]) ** 2)
    quart = LagrangianDensity(lambda jp: 0.25 * float(jp.xprime[0, 0]) ** 4
                              + float(jp.x[0]) ** 2)
    grads = {
        "quadratic": (quad, lambda jp: 0.0, lambda jp: jp.xprime[0, 0]),
        "quartic": (quart, lambda jp: 2 * jp.x[0], lambda jp: jp.xprime[0, 0] ** 3),
    }
    rng = np.random.default_rng(606)
    worst = 0.0
    for L, ref_lower, ref_mixed in grads.values():
        psi = constitutive_from_lagrangian(L, 1, 1)
        for _ in range(100):
            jp = JetPoint(rng.uniform(0, 1, 1), rng.uniform(-2, 2, 1),
                          rng.uniform(-2, 2, (1, 1)))
            worst = max(worst, abs(psi.psi_lower[0](jp) - ref_lower(jp)),
                        abs(psi.psi_mixed[0][0](jp) - ref_mixed(jp)))
    verdict("criterion-06 hyperelastic-gradient", worst <= 1e-6,
            f"max gradient error {worst:.3e} (tol 1e-06) at 200 jet points")


def test_criterion_07_first_variation_identity():
    worst = max(check_values((ScenarioConfig("energy_variation", seed=700 + k, d=1, m=1, count=1)
                              for k in range(10)), 10))
    verdict("criterion-07 first-variation-identity", worst <= 1e-6,
            f"max residual {worst:.3e} (tol 1e-06) over 10 triples")


def test_criterion_08_manufactured_bar_bvp():
    report = run_scenario(ScenarioConfig("hyperelastic_1d_bar"))
    values = {c.name: c.value for c in report.checks}
    ok = (values["interior"] <= 1e-6 and values["boundary"] <= 1e-6
          and values["sensitivity"] >= 5e-3)
    verdict("criterion-08 manufactured-bar-bvp", ok,
            f"interior {values['interior']:.3e}, boundary {values['boundary']:.3e} "
            f"(tol 1e-06); perturbed interior {values['sensitivity']:.3e} (>= 5e-03)")


def test_criterion_09_equilibrated_translations():
    worst = max(check_values((ScenarioConfig("equilibrated_translations", seed=900 + seed,
                                             d=2, m=2)
                              for seed in range(3)), 6))
    verdict("criterion-09 equilibrated-translations", worst <= 1e-8,
            f"max translation power {worst:.3e} (tol 1e-08)")


def test_criterion_10_maxwell_vacuum():
    t0 = time.perf_counter()
    report = run_scenario(ScenarioConfig("maxwell_vacuum"))  # 9^4 probe lattice
    elapsed = time.perf_counter() - t0
    values = {c.name: c.value for c in report.checks}
    ok = (values["null_wave_dF"] <= 1e-6 and values["null_wave_J"] <= 1e-6
          and values["non_null_J"] > 0.1 and values["dd_zero"] <= 1e-6
          and elapsed < 60.0)
    verdict("criterion-10 maxwell-vacuum", ok,
            f"dF {values['null_wave_dF']:.3e}, J {values['null_wave_J']:.3e}, "
            f"dd {values['dd_zero']:.3e} (tol 1e-06); non-null J "
            f"{values['non_null_J']:.2f} (> 0.1); {elapsed:.1f}s (< 60s)")


def test_criterion_11_cli_determinism_and_schema(capsys, tmp_path):
    r1 = run_scenario(ScenarioConfig("weak_strong", seed=7, count=3))
    r2 = run_scenario(ScenarioConfig("weak_strong", seed=7, count=3))
    identical = ([c.value for c in r1.checks] == [c.value for c in r2.checks])

    parsed = json.loads(emit_report(r1, "json"))
    expect = report_to_dict(r1)
    for c in parsed["checks"] + expect["checks"]:
        c.pop("seconds")
    round_trip = parsed == expect

    code_pass = main(["--scenario", "weak_strong", "--seed", "7",
                      "--out", str(tmp_path / "r.json")])
    code_fail = main(["--scenario", "weak_strong", "--seed", "7",
                      "--tolerance", "default=1e-300",
                      "--out", str(tmp_path / "f.json")])
    proc = subprocess.run([sys.executable, "-m", "jetstress",
                           "--scenario", "no_such_scenario"], capture_output=True)
    capsys.readouterr()
    codes = (code_pass, code_fail, proc.returncode)
    ok = identical and round_trip and codes == (0, 1, 2)
    verdict("criterion-11 cli-determinism-schema", ok,
            f"identical residuals: {identical}; JSON round-trip exact: {round_trip}; "
            f"exit codes (pass, fail, config) = {codes}")
