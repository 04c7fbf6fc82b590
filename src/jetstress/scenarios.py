"""Scenario registry: seeded verification suites runnable from the CLI.

Each scenario draws its field data from a fixed family (multivariate
polynomials with seeded coefficients in [-1, 1], sine modes on periodic
axes, compact bumps) so that identical (config, seed) pairs give identical
residuals.  A scenario's defaults and allowed dimensions live in its
`REGISTRY` row; `run_scenario` fills every key the config leaves unset from
that row and rejects a key the row does not name, and a scenario that runs
other quadrature settings than it was given records them, so the echoed
config is the one that ran.
"""
from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Callable

import numpy as np

from . import chart, equilibrium, fields, forces, forms, material, stress
from .chart import ChartDomain, FDScheme, QuadratureRule, ScalarField, sup_norm, uniform_grid
from .sections import Configuration, JetPoint, VelocityField, jet_prolong_velocity


class ConfigError(ValueError):
    """Malformed scenario configuration."""


class UnknownScenarioError(ConfigError):
    """Scenario id not in the registry."""


@dataclass
class Check:
    name: str
    value: float
    tolerance: float
    comparator: str  # "le" | "ge"
    passed: bool
    seconds: float


@dataclass
class Report:
    scenario: str
    config: dict
    checks: list[Check]
    passed: bool


@dataclass
class ScenarioConfig:
    scenario: str
    seed: int = 0
    d: int | None = None
    m: int | None = None
    q: int = 8
    panels: int = 1
    fd_order: int = 4
    fd_step: float = 1e-3
    samples: int | None = None
    count: int | None = None
    tolerances: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name, tol in self.tolerances.items():
            if not (math.isfinite(tol) and tol > 0):
                raise ConfigError(f"tolerance {name} must be finite and positive, got {tol}")
        if self.q < 1 or self.panels < 1:
            raise ConfigError("quadrature order and panels must be positive")
        if self.fd_order not in (2, 4):
            raise ConfigError("fd_order must be 2 or 4")
        # every scenario runs on the unit box, so the stencil must fit in it
        if not 0 < self.fd_step * self.fd_order < 1:
            raise ConfigError(f"fd_step * fd_order must lie in (0, 1), got "
                              f"{self.fd_step} * {self.fd_order}")
        # floats are spaced most coarsely at the top of the unit box (eps above
        # 1.0), so h > eps/2 moves every box coordinate, while a step with
        # 1.0 + h == 1.0 (h <= eps/2, the tie rounds to even) leaves 1.0 in
        # place: a probe there collapses onto its base point, and the
        # difference quotient is roundoff over h, which overflows for subnormal h
        if 1.0 + self.fd_step == 1.0:
            raise ConfigError(f"fd_step {self.fd_step} is too small to move the "
                              f"coordinate 1.0 of the unit box")
        for name, low in (("seed", 0), ("d", 1), ("m", 1), ("count", 1), ("samples", 2)):
            value = getattr(self, name)
            if value is not None and value < low:
                raise ConfigError(f"{name} must be at least {low}, got {value}")


class _Runner:
    """Accumulates checks, resolves tolerance overrides and holds the
    effective config."""

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self.checks: list[Check] = []
        self._t0 = time.perf_counter()

    def tol(self, name: str, default: float) -> float:
        if name in self.cfg.tolerances:
            return self.cfg.tolerances[name]
        return self.cfg.tolerances.get("default", default)

    def ran(self, **changes) -> ScenarioConfig:
        """Record config values the scenario adjusted; return the effective config."""
        self.cfg = replace(self.cfg, **changes)
        return self.cfg

    def add(self, name: str, value: float, default_tol: float, comparator: str = "le") -> None:
        t1 = time.perf_counter()
        tol = self.tol(name, default_tol)
        # a non-finite value fails whatever the comparator
        ok = math.isfinite(value) and (value <= tol if comparator == "le" else value >= tol)
        self.checks.append(Check(name, float(value), float(tol), comparator, bool(ok), t1 - self._t0))
        self._t0 = t1


def _rng(cfg: ScenarioConfig) -> np.random.Generator:
    return np.random.default_rng(cfg.seed)


def _rule(cfg: ScenarioConfig) -> QuadratureRule:
    return QuadratureRule(cfg.q, cfg.panels)


def _scheme(cfg: ScenarioConfig) -> FDScheme:
    return FDScheme(cfg.fd_step, cfg.fd_order)


def random_velocity(rng: np.random.Generator, d: int, m: int, degree: int = 3) -> VelocityField:
    return VelocityField(tuple(fields.random_polynomial(rng, d, degree) for _ in range(m)))


def random_stress(rng: np.random.Generator, d: int, m: int, degree: int = 3,
                  with_lower: bool = True) -> stress.VariationalStressDensity:
    lower = tuple(fields.random_polynomial(rng, d, degree) if with_lower
                  else fields.constant_field(0.0) for _ in range(m))
    mixed = tuple(tuple(fields.random_polynomial(rng, d, degree) for _ in range(d))
                  for _ in range(m))
    return stress.VariationalStressDensity(lower, mixed)


def random_traction(rng: np.random.Generator, d: int, m: int, degree: int = 3) -> stress.TractionStressDensity:
    return stress.TractionStressDensity(
        tuple(tuple(fields.random_polynomial(rng, d, degree) for _ in range(d))
              for _ in range(m)))


def _scenario_stokes(cfg: ScenarioConfig, run: _Runner) -> None:
    d = cfg.d
    dom = ChartDomain.unit(d)
    rng = _rng(cfg)
    rule, scheme = _rule(cfg), _scheme(cfg)
    for k in range(cfg.count):
        omega = [fields.random_polynomial(rng, d, 3) for _ in range(d)]
        run.add(f"stokes_{k:02d}", chart.stokes_residual(omega, dom, rule, scheme), 1e-6)


def _scenario_exterior_jet(cfg: ScenarioConfig, run: _Runner) -> None:
    d, m = cfg.d, cfg.m
    dom = ChartDomain.unit(d)
    rng = _rng(cfg)
    scheme = _scheme(cfg)
    grid = uniform_grid(dom, cfg.samples)
    for k in range(cfg.count):
        tau = random_traction(rng, d, m)
        v = random_velocity(rng, d, m)
        s = stress.exterior_jet(tau, dom, scheme)
        eta = jet_prolong_velocity(v, dom, scheme)
        # d(tau . v): divergence of the contracted (d-1)-form components
        w = [ScalarField(lambda X, a=a: sum(tau.tau[i][a](X) * v.components[i](X)
                                            for i in range(m))) for a in range(d)]
        worst = sup_norm(
            lambda X: chart.fd_divergence(w, X, dom, scheme) - stress.stress_pairing(s, eta, X),
            grid)
        run.add(f"pair_{k:02d}", worst, 1e-6)


def _scenario_divergence(cfg: ScenarioConfig, run: _Runner) -> None:
    d, m = cfg.d, cfg.m
    dom = ChartDomain.unit(d)
    rng = _rng(cfg)
    scheme = _scheme(cfg)
    grid = uniform_grid(dom, cfg.samples)
    for k in range(cfg.count):
        s = random_stress(rng, d, m)
        v = random_velocity(rng, d, m)
        div = stress.divergence(s, dom, scheme)
        lifted = stress.exterior_jet(stress.traction_extract(s), dom, scheme)
        eta = jet_prolong_velocity(v, dom, scheme)
        worst = sup_norm(
            lambda X: np.sum(div.value(X) * v.value(X), axis=-1)
            - (stress.stress_pairing(lifted, eta, X) - stress.stress_pairing(s, eta, X)), grid)
        run.add(f"pair_{k:02d}", worst, 1e-6)


def _scenario_weak_strong(cfg: ScenarioConfig, run: _Runner) -> None:
    d, m = cfg.d, cfg.m
    dom = ChartDomain.unit(d)
    rng = _rng(cfg)
    rule, scheme = _rule(cfg), _scheme(cfg)
    for k in range(cfg.count):
        s = random_stress(rng, d, m)
        v = random_velocity(rng, d, m)
        run.add(f"case_{k:02d}",
                equilibrium.weak_strong_consistency(s, v, dom, rule, scheme), 1e-6)


def _scenario_null_stress(cfg: ScenarioConfig, run: _Runner) -> None:
    # polynomial bumps with support edges on panel boundaries keep the
    # quadrature exact up to FD noise; panels must stay a multiple of 4
    cfg = run.ran(q=max(cfg.q, 8), panels=4 * -(-cfg.panels // 4))
    d, m = cfg.d, cfg.m
    dom = ChartDomain.unit(d)
    rng = _rng(cfg)
    rule, scheme = _rule(cfg), _scheme(cfg)
    tests = [random_velocity(rng, d, m) for _ in range(10)]
    grid = uniform_grid(dom, cfg.samples)
    for k in range(cfg.count):
        support = [(0.25, 0.75)] * d
        taus = tuple(tuple(fields.poly_bump_field(support, rng.uniform(0.5, 1.5))
                           for _ in range(d)) for _ in range(m))
        tau = stress.TractionStressDensity(taus)
        s = stress.exterior_jet(tau, dom, scheme)
        power = np.max(np.abs(stress.virtual_power_of_stress(s, tests, dom, rule, scheme)))
        run.add(f"power_{k:02d}", power, 1e-8)
        magnitude = max(sup_norm(g, grid) for row in s.s_mixed for g in row)
        run.add(f"magnitude_{k:02d}", magnitude, 0.1, comparator="ge")
        div = stress.divergence(s, dom, scheme)
        run.add(f"divergence_{k:02d}", sup_norm(div.value, grid), 1e-6)


def _bar_setup() -> tuple[ChartDomain, material.LagrangianDensity,
                          material.BodyLoadingDensity, material.SurfaceLoadingDensity]:
    dom = ChartDomain.unit(1)
    L = material.LagrangianDensity(lambda jp: 0.5 * jp.xprime[..., 0, 0] ** 2)
    body = material.BodyLoadingDensity(((lambda X, x: -1.0),))
    upper = chart.BoundaryFace(0, "upper")
    lower = chart.BoundaryFace(0, "lower")
    surf = material.SurfaceLoadingDensity({
        upper: ((lambda X, x: 1.0),),
        lower: ((lambda X, x: 0.0),),
    })
    return dom, L, body, surf


def _scenario_bar(cfg: ScenarioConfig, run: _Runner) -> None:
    dom, L, body, surf = _bar_setup()
    scheme = _scheme(cfg)
    psi = material.constitutive_from_lagrangian(L, 1, 1)
    kappa = Configuration((ScalarField(lambda X: 0.5 * X[..., 0] ** 2),), smoothness=2)
    interior, boundary = material.bvp_residual(kappa, psi, body, surf, dom, scheme, cfg.samples)
    run.add("interior", interior, 1e-6)
    run.add("boundary", boundary, 1e-6)
    bent = Configuration(
        (ScalarField(lambda X: 0.5 * X[..., 0] ** 2 + 1e-2 * np.sin(math.pi * X[..., 0])),),
        smoothness=2)
    perturbed, _ = material.bvp_residual(bent, psi, body, surf, dom, scheme, cfg.samples)
    run.add("sensitivity", perturbed, 5e-3, comparator="ge")


def random_lagrangian(rng: np.random.Generator, m: int, d: int,
                      degree: int = 3) -> material.LagrangianDensity:
    """Polynomial Lagrangian of bounded total degree in the vertical coordinates."""
    terms = []
    for powers in np.ndindex(*((degree + 1,) * (m + m * d))):
        if sum(powers) == 0 or sum(powers) > degree:
            continue
        terms.append((rng.uniform(-1.0, 1.0), np.array(powers)))

    def ev(jp: JetPoint) -> np.ndarray:
        coords = np.concatenate([jp.x, jp.xprime.reshape(*jp.xprime.shape[:-2], -1)], axis=-1)
        return sum(c * np.prod(coords ** p, axis=-1) for c, p in terms)

    return material.LagrangianDensity(ev)


def _scenario_energy_variation(cfg: ScenarioConfig, run: _Runner) -> None:
    d, m = cfg.d, cfg.m
    dom = ChartDomain.unit(d)
    rng = _rng(cfg)
    rule, scheme = _rule(cfg), _scheme(cfg)
    for k in range(cfg.count):
        kappa = Configuration(tuple(fields.random_polynomial(rng, d, 3) for _ in range(m)),
                              smoothness=2)
        v = random_velocity(rng, d, m)
        L = random_lagrangian(rng, m, d)
        run.add(f"triple_{k:02d}",
                material.energy_variation_residual(kappa, v, L, dom, rule, scheme), 1e-6)


def _scenario_equilibrated(cfg: ScenarioConfig, run: _Runner) -> None:
    d, m = cfg.d, cfg.m
    dom = ChartDomain.unit(d)
    rng = _rng(cfg)
    rule, scheme = _rule(cfg), _scheme(cfg)
    s = random_stress(rng, d, m, with_lower=False)
    f = equilibrium.force_from_stress(s, dom, scheme)
    gens = forces.translation_generators(dom, m)
    for label, value in forces.equilibrated_force_residual(f, gens, dom, rule).items():
        run.add(label, value, 1e-8)


def plane_wave_potential(k: np.ndarray, eps: np.ndarray) -> forms.PForm:
    """1-form A = cos(2*pi*(k . X)) * eps on the unit 4-box."""
    comps = {}
    for mu in range(4):
        if eps[mu] == 0.0:
            continue
        comps[(mu,)] = ScalarField(
            lambda X, a=float(eps[mu]): a * np.cos(2.0 * math.pi * (X @ k)))
    return forms.PForm(1, 4, comps)


def _scenario_maxwell(cfg: ScenarioConfig, run: _Runner) -> None:
    dom = ChartDomain.unit(4, periodic=range(4))
    metric = forms.minkowski()
    rule, scheme = _rule(cfg), _scheme(cfg)
    # null wavevector (light-like in the (-,+,+,+) metric), transverse amplitude
    k_null = np.array([1.0, 1.0, 0.0, 0.0])
    eps = np.array([0.0, 0.0, 1.0, 0.0])
    A = plane_wave_potential(k_null, eps)
    dF, J = forms.maxwell_vacuum_check(A, metric, dom, rule, scheme, cfg.samples)
    run.add("null_wave_dF", dF, 1e-6)
    run.add("null_wave_J", J, 1e-6)

    k_bad = np.array([1.0, 0.0, 0.0, 0.0])
    A_bad = plane_wave_potential(k_bad, eps)
    # only the source of the non-null wave is checked, so its dF is not computed
    _, J_bad = forms.maxwell_fields(A_bad, metric, dom, scheme)
    run.add("non_null_J", forms.form_sup_norm(J_bad, dom, cfg.samples), 0.1, comparator="ge")

    rng = _rng(cfg)
    B = forms.PForm(1, 4, {(mu,): fields.random_sine_field(rng, 4, n_modes=1)
                           for mu in range(4)})
    ddB = forms.exterior_derivative(forms.exterior_derivative(B, dom, scheme), dom, scheme)
    run.add("dd_zero", forms.form_sup_norm(ddB, dom, cfg.samples), 1e-6)


def _scenario_pform_leibniz(cfg: ScenarioConfig, run: _Runner) -> None:
    cfg = run.ran(panels=max(cfg.panels, 2))
    d = cfg.d
    dom = ChartDomain.unit(d)
    rng = _rng(cfg)
    scheme = _scheme(cfg)
    a = forms.PForm(1, d, {(i,): fields.random_polynomial(rng, d, 3) for i in range(d)})
    b = forms.PForm(1, d, {(i,): fields.random_polynomial(rng, d, 3) for i in range(d)})

    lhs = forms.exterior_derivative(forms.wedge(a, b), dom, scheme)
    da_b = forms.wedge(forms.exterior_derivative(a, dom, scheme), b)
    a_db = forms.wedge(a, forms.exterior_derivative(b, dom, scheme))
    grid = uniform_grid(dom, cfg.samples)
    worst = max(sup_norm(lambda X: lhs.component(idx)(X)
                         - (da_b.component(idx)(X) - a_db.component(idx)(X)), grid)
                for idx in lhs.indices())
    run.add("leibniz", worst, 1e-6)

    ab, ba = forms.wedge(a, b), forms.wedge(b, a)
    grid = uniform_grid(dom, 5)
    anti = max(sup_norm(lambda X: ab.component(idx)(X) + ba.component(idx)(X), grid)
               for idx in ab.indices())
    run.add("anticommute", anti, 1e-12)

    # closed-box power: on a torus the power of any smooth pair integrates to zero
    per = ChartDomain.unit(d, periodic=range(d))
    p = 1
    g = forms.PForm(d - p - 1, d,
                    {idx: fields.random_sine_field(rng, d, n_modes=1)
                     for idx in forms.zero_form(d - p - 1, d).indices()})
    v = forms.PForm(p, d, {(i,): fields.random_sine_field(rng, d, n_modes=1)
                           for i in range(d)})
    power = forms.pform_virtual_power(g, v, None, per, _rule(cfg), scheme)
    run.add("closed_box_power", abs(power), 1e-6)


# id -> (runner, defaults of the config keys it reads, allowed d or None for any);
# each of _ROW_KEYS a scenario reads has a default in its row
_ROW_KEYS = ("d", "m", "count", "samples")
REGISTRY: dict[str, tuple[Callable[[ScenarioConfig, _Runner], None], dict, set | None]] = {
    "stokes": (_scenario_stokes, {"d": 2, "count": 20}, {1, 2, 3}),
    "exterior_jet_identity": (_scenario_exterior_jet,
                              {"d": 2, "m": 2, "count": 20, "samples": 17}, {1, 2, 3}),
    "divergence_identity": (_scenario_divergence,
                            {"d": 2, "m": 2, "count": 20, "samples": 17}, {1, 2, 3}),
    "weak_strong": (_scenario_weak_strong, {"d": 2, "m": 2, "count": 20}, None),
    "null_stress": (_scenario_null_stress, {"d": 2, "m": 2, "count": 10, "samples": 17}, None),
    "hyperelastic_1d_bar": (_scenario_bar, {"samples": 17}, None),
    "energy_variation": (_scenario_energy_variation, {"d": 1, "m": 1, "count": 10}, None),
    "equilibrated_translations": (_scenario_equilibrated, {"d": 2, "m": 2}, None),
    "maxwell_vacuum": (_scenario_maxwell, {"samples": 9}, None),
    "pform_leibniz": (_scenario_pform_leibniz, {"d": 3, "samples": 17}, {3}),
}


def run_scenario(cfg: ScenarioConfig) -> Report:
    if cfg.scenario not in REGISTRY:
        raise UnknownScenarioError(
            f"unknown scenario {cfg.scenario!r}; known: {', '.join(sorted(REGISTRY))}")
    runner, defaults, allowed_d = REGISTRY[cfg.scenario]
    unread = [k for k in _ROW_KEYS if getattr(cfg, k) is not None and k not in defaults]
    if unread:
        raise ConfigError(f"{cfg.scenario} does not read {', '.join(unread)}")
    cfg = replace(cfg, **{k: v for k, v in defaults.items() if getattr(cfg, k) is None})
    if allowed_d is not None and cfg.d not in allowed_d:
        raise ConfigError(f"{cfg.scenario} supports d in {sorted(allowed_d)}, got {cfg.d}")
    run = _Runner(cfg)
    runner(cfg, run)
    # a report without checks verifies nothing, so it does not pass
    passed = bool(run.checks) and all(c.passed for c in run.checks)
    return Report(cfg.scenario, asdict(run.cfg), run.checks, passed)
