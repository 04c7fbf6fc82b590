"""Scenario registry: seeded verification suites runnable from the CLI.

Each scenario draws its field data from a fixed family (multivariate
polynomials with seeded coefficients in [-1, 1], sine modes on periodic
axes, compact bumps) so that identical (config, seed) pairs give identical
residuals.  A scenario's defaults and allowed dimensions live in its
`REGISTRY` row, which names every optional key the scenario reads;
`run_scenario` fills every key the config leaves unset from that row and
rejects a key the row does not name, so the echoed config is the one that ran.

A runner yields (name, thunk, default tolerance, comparator) per check, in
report order; checks that one call computes (maxwell's null_wave_dF and
null_wave_J, the bar's interior and boundary, the translations) share one
thunk, under the tuple of their names.  `run_scenario` calls each thunk at
once, before it resumes the runner, so a thunk sees its own iteration's loop
variables and the rng draws keep their order; `seconds` is the time of the
thunk that computed the check.
"""
from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field, fields as dc_fields, replace
from functools import cache
from typing import Callable, Iterator, NamedTuple

import numpy as np

from . import chart, equilibrium, fields, forces, forms, material, stress
from .chart import ChartDomain, FDScheme, QuadratureRule, ScalarField, sup_norm, uniform_grid
from .sections import Configuration, JetPoint, VelocityField, velocity_jets


class ConfigError(ValueError):
    """Malformed scenario configuration."""


class UnknownScenarioError(ConfigError):
    """Scenario id not in the registry."""


class Check(NamedTuple):
    name: str
    value: float
    tolerance: float
    comparator: str  # "le" | "ge"
    passed: bool
    seconds: float


class Report(NamedTuple):
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
    q: int | None = None
    panels: int | None = None
    fd_order: int = 4
    fd_step: float = 1e-3
    samples: int | None = None
    count: int | None = None
    tolerances: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name, tol in self.tolerances.items():
            if not (math.isfinite(tol) and tol > 0):
                raise ConfigError(f"tolerance {name} must be finite and positive, got {tol}")
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
        for name, low in (("seed", 0), ("d", 1), ("m", 1), ("q", 1), ("panels", 1),
                          ("count", 1), ("samples", 2)):
            value = getattr(self, name)
            if value is not None and value < low:
                raise ConfigError(f"{name} must be at least {low}, got {value}")


# (name or names, thunk of its value or values, tolerance, comparator "le" | "ge")
Checks = Iterator[tuple[str | tuple[str, ...], Callable[[], object], float, str]]


def _rng(cfg: ScenarioConfig) -> np.random.Generator:
    return np.random.default_rng(cfg.seed)


def _rule(cfg: ScenarioConfig) -> QuadratureRule:
    return QuadratureRule(cfg.q, cfg.panels)


def _scheme(cfg: ScenarioConfig) -> FDScheme:
    return FDScheme(cfg.fd_step, cfg.fd_order)


def random_velocity(rng: np.random.Generator, d: int, m: int) -> VelocityField:
    return VelocityField(tuple(fields.random_polynomial(rng, d) for _ in range(m)))


def random_stress(rng: np.random.Generator, d: int, m: int,
                  with_lower: bool = True) -> stress.VariationalStressDensity:
    lower = tuple(fields.random_polynomial(rng, d) if with_lower
                  else fields.constant_field(0.0) for _ in range(m))
    mixed = tuple(tuple(fields.random_polynomial(rng, d) for _ in range(d)) for _ in range(m))
    return stress.VariationalStressDensity(lower, mixed)


def random_traction(rng: np.random.Generator, d: int, m: int) -> stress.TractionStressDensity:
    return stress.TractionStressDensity(
        tuple(tuple(fields.random_polynomial(rng, d) for _ in range(d)) for _ in range(m)))


def _scenario_stokes(cfg: ScenarioConfig) -> Checks:
    d = cfg.d
    dom = ChartDomain.unit(d)
    rng = _rng(cfg)
    rule, scheme = _rule(cfg), _scheme(cfg)
    for k in range(cfg.count):
        omega = [fields.random_polynomial(rng, d, 3) for _ in range(d)]
        yield (f"stokes_{k:02d}", lambda: chart.stokes_residual(omega, dom, rule, scheme),
               1e-6, "le")


def _scenario_exterior_jet(cfg: ScenarioConfig) -> Checks:
    """d(tau . v) against the pairing of exterior_jet(tau) with j1(v), on the
    probe lattice.  tau and v are evaluated once on the lattice and on its
    axis stencils (tau_i^a on axis a's only), and both sides are formed from
    those values: d(tau . v) weighs the products tau_i^a v_i, summed in fiber
    order, along each axis a and sums the partials in axis order, as
    `fd_divergence` of the product field does; exterior_jet(tau) weighs the
    same tau_i^a for its lower block and takes tau on the lattice for its
    mixed one, and j1(v) is v on the lattice and its weighed stencils."""
    d, m = cfg.d, cfg.m
    dom = ChartDomain.unit(d)
    rng = _rng(cfg)
    scheme = _scheme(cfg)
    h = scheme.step
    grid = uniform_grid(dom, cfg.samples)
    for k in range(cfg.count):
        tau = random_traction(rng, d, m)
        v = random_velocity(rng, d, m)

        def gap(X: np.ndarray) -> np.ndarray:
            (xd, _), *v_axes = chart.stencil_values(v.components, X, (None, *range(d)),
                                                    dom, scheme)
            # fiber-major blocks, (m, N) and (m, N, d); `weigh` overwrites the
            # values it weighs, so every product is formed first
            d_tv = lower = 0
            mixed = []
            for a, (v_a, table) in enumerate(v_axes):
                (tau_X, _), (tau_a, _) = chart.stencil_values([row[a] for row in tau.tau], X,
                                                              (None, a), dom, scheme)
                d_tv = d_tv + chart.weigh(sum(t * u for t, u in zip(tau_a, v_a)), table, h)
                lower = lower + chart.weigh(tau_a, table, h)
                mixed.append(tau_X)
            xdp = np.stack([chart.weigh(v_a, table, h) for v_a, table in v_axes], axis=-1)
            return d_tv - stress.pair_blocks((lower.T, np.stack(mixed, axis=-1).swapaxes(0, 1)),
                                             (xd.T, xdp.swapaxes(0, 1)))

        yield f"pair_{k:02d}", lambda: sup_norm(gap, grid), 1e-6, "le"


def _scenario_divergence(cfg: ScenarioConfig) -> Checks:
    """div(s) . v against the pairing of v's jet with exterior_jet(traction
    of s) minus s, on the probe lattice.  Per case s's blocks, v's jet and
    the traction divergence are each evaluated once on the lattice: div(s)
    is the traction divergence minus s's lower block, and both pairings
    share v's jet and s's mixed block, the lifted one taking the traction
    divergence as its lower block.  Both sides share one discrete gradient,
    so the check holds for any constant multiple of the derivative operator;
    its calculus anchor is `weak_strong`, which weighs the same divergence
    against a face term with no derivative in it."""
    d, m = cfg.d, cfg.m
    dom = ChartDomain.unit(d)
    rng = _rng(cfg)
    scheme = _scheme(cfg)
    grid = uniform_grid(dom, cfg.samples)
    for k in range(cfg.count):
        s = random_stress(rng, d, m)
        v = random_velocity(rng, d, m)

        def gap(X: np.ndarray) -> np.ndarray:
            lower, mixed = s.value(X)
            div_tau = np.stack([chart.fd_divergence(row, X, dom, scheme) for row in s.s_mixed],
                               axis=-1)
            eta = chart.jet(v.components, X, dom, scheme)
            return (np.sum((div_tau - lower) * eta[0], axis=-1)
                    - (stress.pair_blocks((div_tau, mixed), eta)
                       - stress.pair_blocks((lower, mixed), eta)))

        yield f"pair_{k:02d}", lambda: sup_norm(gap, grid), 1e-6, "le"


def _scenario_weak_strong(cfg: ScenarioConfig) -> Checks:
    d, m = cfg.d, cfg.m
    dom = ChartDomain.unit(d)
    rng = _rng(cfg)
    rule, scheme = _rule(cfg), _scheme(cfg)
    for k in range(cfg.count):
        s = random_stress(rng, d, m)
        v = random_velocity(rng, d, m)
        yield (f"case_{k:02d}",
               lambda: equilibrium.weak_strong_consistency(s, v, dom, rule, scheme), 1e-6, "le")


def _scenario_null_stress(cfg: ScenarioConfig) -> Checks:
    # the bumps are of degree 12 per axis on [0.25, 0.75]; with their support
    # edges on panel edges, q >= 8 integrates them exactly up to FD noise
    if cfg.q < 8 or cfg.panels % 4:
        raise ConfigError(f"null_stress needs q >= 8 and panels a multiple of 4 to integrate "
                          f"its bumps exactly, got q {cfg.q}, panels {cfg.panels}")
    d, m = cfg.d, cfg.m
    dom = ChartDomain.unit(d)
    rng = _rng(cfg)
    rule, scheme = _rule(cfg), _scheme(cfg)
    tests = [random_velocity(rng, d, m) for _ in range(10)]
    # the tests' jets on the volume nodes, built once and paired with every case's stress
    jets = velocity_jets(tests, chart.volume_nodes(dom, rule)[0], dom, scheme)
    grid = uniform_grid(dom, cfg.samples)
    for k in range(cfg.count):
        support = [(0.25, 0.75)] * d
        taus = tuple(tuple(fields.poly_bump_field(support, rng.uniform(0.5, 1.5))
                           for _ in range(d)) for _ in range(m))
        tau = stress.TractionStressDensity(taus)
        s = stress.exterior_jet(tau, dom, scheme)
        yield f"power_{k:02d}", lambda: np.linalg.norm(
            stress.virtual_power_of_stress(s, jets, dom, rule), np.inf), 1e-8, "le"
        yield (f"magnitude_{k:02d}",
               lambda: sup_norm(lambda X: [g(X) for row in s.s_mixed for g in row], grid),
               0.1, "ge")
        div = stress.divergence(s, dom, scheme)
        yield f"divergence_{k:02d}", lambda: sup_norm(div.value, grid), 1e-6, "le"


def _bar_setup() -> tuple[ChartDomain, material.LagrangianDensity,
                          material.BodyLoading, material.SurfaceLoading]:
    dom = ChartDomain.unit(1)
    L = material.LagrangianDensity(lambda jp: 0.5 * jp.xprime[..., 0, 0] ** 2)
    body = ((lambda X, x: -1.0),)
    surf = {
        chart.BoundaryFace(0, "upper"): ((lambda X, x: 1.0),),
        chart.BoundaryFace(0, "lower"): ((lambda X, x: 0.0),),
    }
    return dom, L, body, surf


def _scenario_bar(cfg: ScenarioConfig) -> Checks:
    dom, L, body, surf = _bar_setup()
    scheme = _scheme(cfg)
    psi = material.constitutive_from_lagrangian(L, 1, 1)
    kappa = Configuration((ScalarField(lambda X: 0.5 * X[..., 0] ** 2),))
    yield (("interior", "boundary"),
           lambda: material.bvp_residual(kappa, psi, body, surf, dom, scheme, cfg.samples),
           1e-6, "le")
    bent = Configuration(
        (ScalarField(lambda X: 0.5 * X[..., 0] ** 2 + 1e-2 * np.sin(math.pi * X[..., 0])),))
    yield ("sensitivity",
           lambda: material.bvp_residual(bent, psi, body, surf, dom, scheme, cfg.samples)[0],
           5e-3, "ge")


def _exponents(n: int, degree: int) -> list[tuple[int, ...]]:
    """Exponent tuples of n variables of total degree at most `degree`, in
    np.ndindex order (last variable fastest): the tuples of np.ndindex over
    (degree + 1,) * n whose sum is at most `degree`, without visiting the
    others."""
    if n == 0:
        return [()]
    return [(p,) + rest for p in range(degree + 1) for rest in _exponents(n - 1, degree - p)]


def random_lagrangian(rng: np.random.Generator, m: int, d: int) -> material.LagrangianDensity:
    """Polynomial Lagrangian of total degree at most 3 in the vertical coordinates."""
    terms = [(rng.uniform(-1.0, 1.0), np.array(powers))
             for powers in _exponents(m + m * d, 3) if any(powers)]

    def ev(jp: JetPoint) -> np.ndarray:
        coords = np.concatenate([jp.x, jp.xprime.reshape(*jp.xprime.shape[:-2], -1)], axis=-1)
        return sum(c * np.prod(coords ** p, axis=-1) for c, p in terms)

    return material.LagrangianDensity(ev)


def _scenario_energy_variation(cfg: ScenarioConfig) -> Checks:
    """The rate of the stored energy along v against the virtual power of
    the hyperelastic stress on v.  Both sides take the configuration's jet
    from one discrete gradient, so the check holds for any constant multiple
    of the base derivative; its calculus anchor is `material`'s vertical
    central difference (VERTICAL_STEP), which acceptance criteria 06-08
    reject when it is mis-scaled."""
    d, m = cfg.d, cfg.m
    dom = ChartDomain.unit(d)
    rng = _rng(cfg)
    rule, scheme = _rule(cfg), _scheme(cfg)
    for k in range(cfg.count):
        kappa = Configuration(tuple(fields.random_polynomial(rng, d, 3) for _ in range(m)))
        v = random_velocity(rng, d, m)
        L = random_lagrangian(rng, m, d)
        yield (f"triple_{k:02d}",
               lambda: material.energy_variation_residual(kappa, v, L, dom, rule, scheme),
               1e-6, "le")


def _scenario_equilibrated(cfg: ScenarioConfig) -> Checks:
    d, m = cfg.d, cfg.m
    dom = ChartDomain.unit(d)
    rng = _rng(cfg)
    rule, scheme = _rule(cfg), _scheme(cfg)
    s = random_stress(rng, d, m, with_lower=False)
    f = equilibrium.force_from_stress(s, dom, scheme)
    gens = forces.translation_generators(m)
    yield (tuple(gens),
           lambda: tuple(forces.equilibrated_force_residual(f, gens, dom, rule).values()),
           1e-8, "le")


def plane_wave_potential(k: np.ndarray, eps: np.ndarray) -> forms.PForm:
    """1-form A = cos(2*pi*(k . X)) * eps on the unit 4-box."""
    comps = {}
    for mu in range(4):
        if eps[mu] == 0.0:
            continue
        comps[(mu,)] = ScalarField(
            lambda X, a=float(eps[mu]): a * np.cos(2.0 * math.pi * (X @ k)))
    return forms.PForm(1, 4, comps)


def _scenario_maxwell(cfg: ScenarioConfig) -> Checks:
    dom = ChartDomain.unit(4, periodic=range(4))
    metric = forms.minkowski()
    scheme = _scheme(cfg)
    # null wavevector (light-like in the (-,+,+,+) metric), transverse amplitude
    k_null = np.array([1.0, 1.0, 0.0, 0.0])
    eps = np.array([0.0, 0.0, 1.0, 0.0])
    A = plane_wave_potential(k_null, eps)
    yield (("null_wave_dF", "null_wave_J"),
           lambda: forms.maxwell_vacuum_check(A, metric, dom, scheme, cfg.samples), 1e-6, "le")

    k_bad = np.array([1.0, 0.0, 0.0, 0.0])
    A_bad = plane_wave_potential(k_bad, eps)
    # only the source of the non-null wave is checked, so its dF is not computed
    _, J_bad = forms.maxwell_fields(A_bad, metric, dom, scheme)
    yield "non_null_J", lambda: forms.form_sup_norm(J_bad, dom, cfg.samples), 0.1, "ge"

    rng = _rng(cfg)
    B = forms.PForm(1, 4, {(mu,): fields.random_sine_field(rng, 4, n_modes=1)
                           for mu in range(4)})
    ddB = forms.exterior_derivative(forms.exterior_derivative(B, dom, scheme), dom, scheme)
    yield "dd_zero", lambda: forms.form_sup_norm(ddB, dom, cfg.samples), 1e-6, "le"


def _scenario_pform_leibniz(cfg: ScenarioConfig) -> Checks:
    # the closed-box power integrates a whole sine period per axis; on one
    # panel of 8 nodes that is off by 4e-6, beyond the checks' 1e-6
    if cfg.panels < 2:
        raise ConfigError(f"pform_leibniz needs panels >= 2, got {cfg.panels}")
    d = cfg.d
    dom = ChartDomain.unit(d)
    rng = _rng(cfg)
    scheme = _scheme(cfg)
    a = forms.PForm(1, d, {(i,): fields.random_polynomial(rng, d, 3) for i in range(d)})
    b = forms.PForm(1, d, {(i,): fields.random_polynomial(rng, d, 3) for i in range(d)})

    lhs = forms.exterior_derivative(forms.wedge(a, b), dom, scheme)
    da_b = forms.wedge(forms.exterior_derivative(a, dom, scheme), b)
    a_db = forms.wedge(a, forms.exterior_derivative(b, dom, scheme))
    yield "leibniz", lambda: sup_norm(lambda X: [
        lhs.component(idx)(X) - (da_b.component(idx)(X) - a_db.component(idx)(X))
        for idx in lhs.indices()], uniform_grid(dom, cfg.samples)), 1e-6, "le"

    ab, ba = forms.wedge(a, b), forms.wedge(b, a)
    yield "anticommute", lambda: sup_norm(lambda X: [ab.component(idx)(X) + ba.component(idx)(X)
                                                     for idx in ab.indices()],
                                          uniform_grid(dom, 5)), 1e-12, "le"

    # closed-box power: on a torus the power of any smooth pair integrates to
    # zero.  The 1-forms share modes: g_i = a_i sin(theta_i) with theta_i =
    # 2 pi X_(i+1) + phase_i, and v_(i+2) = b_i sin(theta_i + pi/2).  Then the
    # integrals of dg ^ v and g ^ dv are each -pi sum_i a_i b_i, with
    # a_i, b_i >= 0.5, and they cancel only through the identity.
    per = ChartDomain.unit(d, periodic=range(d))
    g, v, ab = {}, {}, 0.0
    for i in range(d):
        axis, phase = np.eye(d, dtype=int)[(i + 1) % d], rng.uniform(0.0, 2.0 * math.pi)
        a_i, b_i = rng.uniform(0.5, 1.0), rng.uniform(0.5, 1.0)
        g[(i,)] = fields.sine_field([(a_i, axis, phase)])
        v[((i + 2) % d,)] = fields.sine_field([(b_i, axis, phase + math.pi / 2)])
        ab += a_i * b_i
    g, v = forms.PForm(1, d, g), forms.PForm(1, d, v)
    rule = _rule(cfg)
    yield ("closed_box_power",
           lambda: abs(forms.pform_virtual_power(g, v, None, per, rule, scheme)), 1e-6, "le")
    dg_v = forms.wedge(forms.exterior_derivative(g, per, scheme), v).component(tuple(range(d)))
    # computed once, in the thunk of the first check that reads it
    integral = cache(lambda: chart.integrate_volume(dg_v, per, rule))
    yield "magnitude_dg_v", lambda: abs(integral()), 0.1, "ge"
    # the integral's exact value anchors the derivative's scale and sign,
    # which the identity checks above cannot see
    yield "signed_dg_v", lambda: abs(integral() + math.pi * ab), 1e-6, "le"


# id -> (runner, defaults of the optional config keys it reads, allowed d or
# None for any); the optional keys are those defaulting to None, and a row
# names exactly the ones its runner reads
_ROW_KEYS = tuple(f.name for f in dc_fields(ScenarioConfig) if f.default is None)
REGISTRY: dict[str, tuple[Callable[[ScenarioConfig], Checks], dict, set | None]] = {
    "stokes": (_scenario_stokes, {"d": 2, "q": 8, "panels": 1, "count": 20}, {1, 2, 3}),
    "exterior_jet_identity": (_scenario_exterior_jet,
                              {"d": 2, "m": 2, "count": 20, "samples": 17}, {1, 2, 3}),
    "divergence_identity": (_scenario_divergence,
                            {"d": 2, "m": 2, "count": 20, "samples": 17}, {1, 2, 3}),
    "weak_strong": (_scenario_weak_strong,
                    {"d": 2, "m": 2, "q": 8, "panels": 1, "count": 20}, None),
    "null_stress": (_scenario_null_stress,
                    {"d": 2, "m": 2, "q": 8, "panels": 4, "count": 10, "samples": 17}, None),
    "hyperelastic_1d_bar": (_scenario_bar, {"samples": 17}, None),
    "energy_variation": (_scenario_energy_variation,
                         {"d": 1, "m": 1, "q": 8, "panels": 1, "count": 10}, None),
    "equilibrated_translations": (_scenario_equilibrated,
                                  {"d": 2, "m": 2, "q": 8, "panels": 1}, None),
    "maxwell_vacuum": (_scenario_maxwell, {"samples": 9}, None),
    "pform_leibniz": (_scenario_pform_leibniz,
                      {"d": 3, "q": 8, "panels": 2, "samples": 17}, {3}),
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
    checks: list[Check] = []
    for names, thunk, default_tol, comparator in runner(cfg):
        t0 = time.perf_counter()
        values = thunk()
        seconds = time.perf_counter() - t0
        if isinstance(names, str):
            names, values = (names,), (values,)
        # `default` moves only `le` checks: a lowered `ge` bar passes on noise
        if comparator == "le":
            default_tol = cfg.tolerances.get("default", default_tol)
        for name, value in zip(names, values, strict=True):
            tol = cfg.tolerances.get(name, default_tol)
            # a non-finite value fails whatever the comparator
            ok = math.isfinite(value) and (value <= tol if comparator == "le" else value >= tol)
            checks.append(Check(name, float(value), float(tol), comparator, bool(ok), seconds))
    # check names are known only once the runner has yielded its checks
    names = [c.name for c in checks]
    stray = [k for k in cfg.tolerances if k != "default" and k not in names]
    if stray:
        raise ConfigError(f"tolerance {', '.join(stray)} matches no check of "
                          f"{cfg.scenario}; its checks: {', '.join(names)}")
    # a report without checks verifies nothing, so it does not pass
    passed = bool(checks) and all(c.passed for c in checks)
    return Report(cfg.scenario, asdict(cfg), checks, passed)
