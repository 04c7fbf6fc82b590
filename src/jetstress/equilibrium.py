"""Equilibrium residuals and weak/strong consistency of the stress representation."""
from __future__ import annotations

import numpy as np

from .chart import (
    ChartDomain,
    FDScheme,
    QuadratureRule,
    face_grid,
    sup_norm,
    uniform_grid,
)
from .fields import scaled
from .forces import BodyForceDensity, ForceFunctional, virtual_power_of_force
from .sections import VelocityField
from .stress import (
    VariationalStressDensity,
    cauchy_face_components,
    divergence,
    traction_extract,
    virtual_power_of_stress,
)


def force_from_stress(s: VariationalStressDensity, dom: ChartDomain,
                      scheme: FDScheme = FDScheme()) -> ForceFunctional:
    """The one statement of the representation map P(s): the force s
    represents, body density -div(s) and the Cauchy traction on each face."""
    body = BodyForceDensity(tuple(scaled(g, -1.0) for g in divergence(s, dom, scheme).components))
    return ForceFunctional(body, {face: cauchy_face_components(traction_extract(s), face, dom)
                                  for face in dom.faces()})


def equilibrium_residuals(s: VariationalStressDensity, f: ForceFunctional,
                          dom: ChartDomain,
                          scheme: FDScheme = FDScheme(),
                          samples: int = 17) -> tuple[float, float]:
    """Strong-form residuals of f against p = force_from_stress(s): sup of
    |f.body - p.body| on an interior lattice, bitwise sup |div(s) + b|, and
    the largest sup |t - p.on_face| over the face lattices (0.0 with no faces)."""
    if f.fiber_dim != s.fiber_dim:
        raise ValueError(f"force has {f.fiber_dim} components, the stress {s.fiber_dim}")
    p = force_from_stress(s, dom, scheme)
    interior = sup_norm(lambda X: f.body.value(X) - p.body.value(X), uniform_grid(dom, samples))
    boundary = [sup_norm(lambda X: [t(X) - c(X) for t, c in zip(f.on_face(face), p.on_face(face))],
                         face_grid(dom, face, samples)) for face in dom.faces()]
    return interior, float(np.maximum.reduce(boundary, initial=0.0))


def weak_strong_consistency(s: VariationalStressDensity, v: VelocityField,
                            dom: ChartDomain,
                            rule: QuadratureRule = QuadratureRule(),
                            scheme: FDScheme = FDScheme()) -> float:
    """|integral of s paired with j1(v)  minus  the power of the force s
    represents (body -div(s), Cauchy tractions on the faces)|; the two sides
    share only the quadrature: jet pairing on one, divergence plus Cauchy
    traction on the other."""
    lhs = virtual_power_of_stress(s, (v,), dom, rule, scheme)[0]
    rhs = virtual_power_of_force(force_from_stress(s, dom, scheme), (v,), dom, rule)[0]
    return abs(lhs - rhs)
