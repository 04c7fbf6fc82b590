"""The benchmark's workloads and the check names each scenario report must carry.

A workload is a list of (scenario, config) pairs run back to back through the
CLI in one process.  `full` is what the benchmark measures; `tiny` runs the
same scenarios on the smallest configs that still reach the same layers, for
the benchmark's own tests.  NOTES.md records why each workload was chosen.
"""
from __future__ import annotations

from dataclasses import dataclass

Run = tuple[str, dict]


@dataclass(frozen=True)
class Workload:
    full: tuple[Run, ...]
    tiny: tuple[Run, ...]


WORKLOADS: dict[str, Workload] = {
    # periodic nested FD on a 4^4 probe lattice; no quadrature, no polynomials
    "maxwell-4d": Workload(
        full=(("maxwell_vacuum", {"samples": 4}),),
        tiny=(("maxwell_vacuum", {"samples": 3}),),
    ),
    # 1024 Gauss nodes x 10 test velocities per case: repeated stress inputs;
    # one of the default 10 cases, so that a run holds several passes
    "null-stress": Workload(
        full=(("null_stress", {"count": 1}),),
        tiny=(("null_stress", {"d": 1, "m": 1, "count": 1, "samples": 3}),),
    ),
    # many small polynomial scenarios: fixed per-call and per-scenario costs
    "poly-sweep": Workload(
        full=(
            ("stokes", {"d": 3, "count": 2}),
            ("weak_strong", {"count": 2}),
            ("divergence_identity", {"count": 2}),
            ("exterior_jet_identity", {"count": 2}),
            ("energy_variation", {"count": 1}),
            ("hyperelastic_1d_bar", {}),
            ("equilibrated_translations", {}),
        ),
        tiny=(
            ("stokes", {"d": 1, "count": 2}),
            ("weak_strong", {"d": 1, "m": 1, "count": 2}),
            ("divergence_identity", {"d": 1, "m": 1, "count": 2, "samples": 3}),
            ("exterior_jet_identity", {"d": 1, "m": 1, "count": 2, "samples": 3}),
            ("energy_variation", {"count": 2}),
            ("hyperelastic_1d_bar", {"samples": 3}),
            ("equilibrated_translations", {"d": 1, "m": 1}),
        ),
    ),
}


def _numbered(prefix: str, count: int) -> list[str]:
    return [f"{prefix}_{k:02d}" for k in range(count)]


def expected_checks(scenario: str, config: dict) -> list[str]:
    """Check names a passing report of `scenario` at `config` contains, in
    report order.  Written from the scenario definitions, not read from the
    program, so a report that drops or renames a check is caught."""
    count = config.get("count")
    if scenario == "stokes":
        return _numbered("stokes", count or 20)
    if scenario in ("exterior_jet_identity", "divergence_identity"):
        return _numbered("pair", count or 20)
    if scenario == "weak_strong":
        return _numbered("case", count or 20)
    if scenario == "energy_variation":
        return _numbered("triple", count or 10)
    if scenario == "null_stress":
        return [f"{kind}_{k:02d}" for k in range(count or 10)
                for kind in ("power", "magnitude", "divergence")]
    if scenario == "hyperelastic_1d_bar":
        return ["interior", "boundary", "sensitivity"]
    if scenario == "equilibrated_translations":
        return [f"translation_{i}" for i in range(config.get("m", 2))]
    if scenario == "maxwell_vacuum":
        return ["null_wave_dF", "null_wave_J", "non_null_J", "dd_zero"]
    raise KeyError(f"no expected checks for scenario {scenario!r}")
