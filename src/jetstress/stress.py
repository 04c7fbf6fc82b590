"""Variational and traction stress densities and their calculus.

Implements the pairing with velocity jets, the traction extraction, the
exterior jet operator, the divergence, and the Cauchy boundary mapping, all
in adapted chart components.  Stress components are fields over the base
(already composed with the configuration jet); base derivatives are total
derivatives of the composed coefficient fields.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .chart import (
    BoundaryFace,
    ChartDomain,
    FDScheme,
    QuadratureRule,
    ScalarField,
    fd_divergence,
    integrate_volume,
    jet,
    # not called here; perfbench's tracer test checks that this binding is patched
    partial_derivative,  # noqa: F401
)
from .fields import scaled
from .forces import BodyForceDensity
from .sections import VelocityField, VelocityJet


@dataclass(frozen=True)
class VariationalStressDensity:
    """Component record (s_i, s_i^a): s_lower pairs with velocity values,
    s_mixed (shape m x d) with velocity gradients, producing a dX coefficient."""

    s_lower: tuple[ScalarField, ...]
    s_mixed: tuple[tuple[ScalarField, ...], ...]

    def __post_init__(self) -> None:
        if len(self.s_mixed) != len(self.s_lower):
            raise ValueError("s_lower and s_mixed fiber dimensions differ")

    @property
    def fiber_dim(self) -> int:
        return len(self.s_lower)

    @property
    def base_dim(self) -> int:
        return len(self.s_mixed[0])

    def value(self, X) -> tuple[np.ndarray, np.ndarray]:
        """The stacked blocks (s_i) of shape (..., m) and (s_i^a) of shape
        (..., m, d) at X (..., d), each component field evaluated once."""
        lower = np.stack([f(X) for f in self.s_lower], axis=-1)
        mixed = np.stack([np.stack([f(X) for f in row], axis=-1) for row in self.s_mixed],
                         axis=-2)
        return lower, mixed


class TractionStressDensity(NamedTuple):
    """Components tau_i^a of dx^i tensor (e_a interior-product dX)."""

    tau: tuple[tuple[ScalarField, ...], ...]

    @property
    def fiber_dim(self) -> int:
        return len(self.tau)


def stress_pairing(s: VariationalStressDensity, eta: VelocityJet, X):
    """Density coefficient s_i * xdot^i + s_i^a * xdot'^i_a at one point (a
    float) or at each point of a set (an array).  The jet blocks may carry
    leading axes in front of X's point axes, one index per velocity; the
    stress is evaluated once and its blocks broadcast against them."""
    if s.fiber_dim != eta.fiber_dim:
        raise ValueError("fiber dimensions differ")
    xd, xdp = eta(X)
    if xdp.shape[-2:] != (s.fiber_dim, s.base_dim):
        raise ValueError("gradient block shape mismatch")
    lower, mixed = s.value(X)
    total = 0.0
    for i in range(s.fiber_dim):
        total += lower[..., i] * xd[..., i]
        for a in range(s.base_dim):
            total += mixed[..., i, a] * xdp[..., i, a]
    return total


def virtual_power_of_stress(s: VariationalStressDensity, vs: Sequence[VelocityField],
                            dom: ChartDomain,
                            rule: QuadratureRule = QuadratureRule(),
                            scheme: FDScheme = FDScheme()) -> np.ndarray:
    """Virtual power expended by the stress on each velocity field of vs: the
    volume integral of the pairing with the jet prolongation of v, shape
    (len(vs),).  The pairing is linear in the velocity, so one evaluation of
    the stress on the volume nodes serves every velocity: their jets, from
    one `jet` of all their components, are stacked on a leading axis and
    contracted with it in one quadrature pass."""
    if not vs:
        raise ValueError("no velocity fields")
    if any(v.fiber_dim != s.fiber_dim for v in vs):
        raise ValueError("fiber dimensions differ")

    comps = [f for v in vs for f in v.components]

    def jets(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # one jet of all k*m components, (..., k*m) -> (k, ..., m) and
        # (..., k*m, d) -> (k, ..., m, d)
        vals, grads = jet(comps, X, dom, scheme)
        vals = vals.reshape(vals.shape[:-1] + (len(vs), s.fiber_dim))
        grads = grads.reshape(grads.shape[:-2] + (len(vs), s.fiber_dim, dom.dim))
        return np.moveaxis(vals, -2, 0), np.moveaxis(grads, -3, 0)

    eta = VelocityJet(jets, s.fiber_dim)
    return integrate_volume(lambda X: stress_pairing(s, eta, X), dom, rule)


def traction_extract(s: VariationalStressDensity) -> TractionStressDensity:
    """Block projection keeping the mixed components: tau_i^a = s_i^a."""
    return TractionStressDensity(s.s_mixed)


def exterior_jet(tau: TractionStressDensity, dom: ChartDomain,
                 scheme: FDScheme = FDScheme()) -> VariationalStressDensity:
    """The operator defined by pairing as the exterior derivative of tau
    composed with a velocity: components (sum_a d_a tau_i^a, tau_i^a)."""
    def lower(i: int) -> ScalarField:
        return ScalarField(lambda X, i=i: fd_divergence(tau.tau[i], X, dom, scheme))

    return VariationalStressDensity(
        tuple(lower(i) for i in range(tau.fiber_dim)),
        tau.tau,
    )


def divergence(s: VariationalStressDensity, dom: ChartDomain,
               scheme: FDScheme = FDScheme()) -> BodyForceDensity:
    """Generalized stress divergence with components sum_a d_a s_i^a - s_i."""
    def comp(i: int) -> ScalarField:
        return ScalarField(
            lambda X, i=i: fd_divergence(s.s_mixed[i], X, dom, scheme) - s.s_lower[i](X))

    return BodyForceDensity(tuple(comp(i) for i in range(s.fiber_dim)))


def cauchy_face_components(tau: TractionStressDensity, face: BoundaryFace,
                           dom: ChartDomain) -> tuple[ScalarField, ...]:
    """Boundary traction components on one face: the face-axis block of tau,
    restricted to the face, with the orientation sign folded in."""
    if dom.is_periodic(face.axis):
        raise ValueError(f"axis {face.axis} is periodic; no boundary face there")
    return tuple(scaled(tau.tau[i][face.axis], face.induced_sign)
                 for i in range(tau.fiber_dim))
