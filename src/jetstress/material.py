"""Constitutive densities, hyperelasticity from a Lagrangian, loadings, and
the boundary-value problem at a configuration.

Vertical (fiber and jet) derivatives are central differences with a step
scaled relative to the coordinate magnitude; the pullback along a
configuration jet turns jet-coordinate fields into base fields, after which
all base differentiation is total.  Jet-coordinate callables (`JetEval`,
`FiberEval`) follow the field protocol: on a point set they receive the
configuration and its jet at every point at once and return one value per
point, shape (...); a single point is the case ... = ().

The boundary-value problem at kappa asks whether the stress psi along j1 kappa
represents the loading force at kappa, so its residuals are the equilibrium
residuals of the two pullbacks; with the invariant form div(s) + b = 0 the
interior residual is  d_a(psi_i^a along j1 kappa) - psi_i + B_i.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .chart import (
    BoundaryFace,
    ChartDomain,
    FDScheme,
    QuadratureRule,
    ScalarField,
    integrate_face,
    integrate_volume,
)
from .equilibrium import equilibrium_residuals
from .forces import BodyForceDensity, ForceFunctional
from .sections import Configuration, JetPoint, JetSection, VelocityField, jet_prolong_config
from .stress import VariationalStressDensity, virtual_power_of_stress

# jet coordinates (X (..., d), x (..., m), xprime (..., m, d)) -> values (...)
JetEval = Callable[[JetPoint], np.ndarray]
# (X (..., d), x (..., m)) -> values (...)
FiberEval = Callable[[np.ndarray, np.ndarray], np.ndarray]
# body loading: components B_i(X, x) over the total space; its pullback along
# a configuration is a body force density
BodyLoading = tuple[FiberEval, ...]
# surface loading: per boundary face, components T_i(X, x), orientation sign
# folded in; a missing face carries zero traction
SurfaceLoading = Mapping[BoundaryFace, tuple[FiberEval, ...]]

VERTICAL_STEP = 1e-4


class ConstitutiveDensity(NamedTuple):
    """Jet-coordinate stress assignment: psi_lower[i] and psi_mixed[i][a]
    evaluate at a JetPoint and give the components of the induced
    variational stress density."""

    psi_lower: tuple[JetEval, ...]
    psi_mixed: tuple[tuple[JetEval, ...], ...]


@dataclass(frozen=True)
class LagrangianDensity:
    """Jet-coordinate scalar whose vertical derivative is a hyperelastic
    constitutive density; assumed C2 in the vertical coordinates."""

    func: JetEval

    def __call__(self, jp: JetPoint) -> np.ndarray:
        return np.asarray(self.func(jp), dtype=float)


class PotentialDensities(NamedTuple):
    """Configuration-dependent potential densities whose negative vertical
    derivatives are the loading densities."""

    body: FiberEval
    surface: Mapping[BoundaryFace, FiberEval]


def _central(g: Callable[[np.ndarray], np.ndarray], base: np.ndarray,
             idx: tuple[int, ...], step: float) -> np.ndarray:
    """Central difference of g along entry base[..., *idx] at every point at
    once, each point's step scaled by the magnitude of its own entry."""
    key = (..., *idx)
    h = step * np.maximum(1.0, np.abs(base[key]))
    up = np.array(base, dtype=float)
    down = np.array(base, dtype=float)
    up[key] += h
    down[key] -= h
    return (g(up) - g(down)) / (2 * h)


def _along_jet(g: JetEval, jet: JetSection) -> ScalarField:
    """Base field X -> g(jet at X)."""
    return ScalarField(lambda X: g(JetPoint(X, *jet(X))))


def _along_config(g: FiberEval, kappa: Configuration) -> ScalarField:
    """Base field X -> g(X, kappa(X))."""
    return ScalarField(lambda X: g(X, kappa.value(X)))


def pullback_constitutive(psi: ConstitutiveDensity, kappa: Configuration,
                          dom: ChartDomain,
                          scheme: FDScheme = FDScheme()) -> VariationalStressDensity:
    """Compose the constitutive components with the jet of the configuration,
    producing stress component fields over the base."""
    jet = jet_prolong_config(kappa, dom, scheme)
    return VariationalStressDensity(
        tuple(_along_jet(g, jet) for g in psi.psi_lower),
        tuple(tuple(_along_jet(g, jet) for g in row) for row in psi.psi_mixed),
    )


def constitutive_from_lagrangian(L: LagrangianDensity, fiber_dim: int,
                                 base_dim: int) -> ConstitutiveDensity:
    """Vertical gradient of the Lagrangian: psi_i = dL/dx^i and
    psi_i^a = dL/dx'^i_a, by central differences at fixed other jet coordinates."""

    def d_value(i: int) -> JetEval:
        return lambda jp: _central(lambda x: L(JetPoint(jp.X, x, jp.xprime)), jp.x, (i,),
                                   VERTICAL_STEP)

    def d_grad(i: int, a: int) -> JetEval:
        return lambda jp: _central(lambda g: L(JetPoint(jp.X, jp.x, g)), jp.xprime, (i, a),
                                   VERTICAL_STEP)

    return ConstitutiveDensity(
        tuple(d_value(i) for i in range(fiber_dim)),
        tuple(tuple(d_grad(i, a) for a in range(base_dim)) for i in range(fiber_dim)),
    )


def loading_from_potential(w: PotentialDensities,
                           fiber_dim: int) -> tuple[BodyLoading, SurfaceLoading]:
    """Loading densities as negative vertical derivatives of the potentials."""

    def neg_grad(g: FiberEval, i: int) -> FiberEval:
        return lambda X, x: -_central(lambda y: g(X, y), x, (i,), VERTICAL_STEP)

    def components(g: FiberEval) -> tuple[FiberEval, ...]:
        return tuple(neg_grad(g, i) for i in range(fiber_dim))

    return components(w.body), {face: components(g) for face, g in w.surface.items()}


def pullback_loading(B: BodyLoading, T: SurfaceLoading,
                     kappa: Configuration) -> ForceFunctional:
    """The loading force at kappa: every body and face component composed
    with the configuration."""
    return ForceFunctional(
        BodyForceDensity(tuple(_along_config(g, kappa) for g in B)),
        {face: tuple(_along_config(g, kappa) for g in t) for face, t in T.items()})


def total_energy(kappa: Configuration, L: LagrangianDensity | None,
                 w: PotentialDensities | None, dom: ChartDomain,
                 rule: QuadratureRule = QuadratureRule(),
                 scheme: FDScheme = FDScheme()) -> float:
    """Stored energy along the configuration jet plus the loading potential."""
    total = 0.0
    if L is not None:
        jet = jet_prolong_config(kappa, dom, scheme)
        total += integrate_volume(_along_jet(L, jet), dom, rule)
    if w is not None:
        total += integrate_volume(_along_config(w.body, kappa), dom, rule)
        for face, g in w.surface.items():
            total += integrate_face(_along_config(g, kappa), face, dom, rule)
    return total


def energy_variation_residual(kappa: Configuration, v: VelocityField,
                              L: LagrangianDensity, dom: ChartDomain,
                              rule: QuadratureRule = QuadratureRule(),
                              scheme: FDScheme = FDScheme()) -> float:
    """|directional derivative of the stored energy along v  minus  the virtual
    power of the hyperelastic stress on v|, the two sides independent."""

    def energy_at(t: float) -> float:
        comps = tuple(ScalarField(lambda X, k=k, vk=vk, t=t: k(X) + t * vk(X))
                      for k, vk in zip(kappa.components, v.components))
        return total_energy(Configuration(comps), L, None, dom, rule, scheme)

    lhs = (energy_at(VERTICAL_STEP) - energy_at(-VERTICAL_STEP)) / (2 * VERTICAL_STEP)

    psi = constitutive_from_lagrangian(L, kappa.fiber_dim, dom.dim)
    s = pullback_constitutive(psi, kappa, dom, scheme)
    rhs = virtual_power_of_stress(s, (v,), dom, rule, scheme)[0]
    return abs(lhs - rhs)


def bvp_residual(kappa: Configuration, psi: ConstitutiveDensity,
                 body_loading: BodyLoading,
                 surface_loading: SurfaceLoading,
                 dom: ChartDomain,
                 scheme: FDScheme = FDScheme(),
                 samples: int = 17) -> tuple[float, float]:
    """Strong-form residuals of the boundary-value problem at kappa: the
    equilibrium residuals of the stress psi along j1 kappa against the
    loading force at kappa."""
    return equilibrium_residuals(pullback_constitutive(psi, kappa, dom, scheme),
                                 pullback_loading(body_loading, surface_loading, kappa),
                                 dom, scheme, samples)
