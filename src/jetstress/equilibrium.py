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
    cauchy_all_faces,
    cauchy_face_components,
    divergence,
    traction_extract,
    virtual_power_of_stress,
)


def force_from_stress(s: VariationalStressDensity, dom: ChartDomain,
                      scheme: FDScheme = FDScheme()) -> ForceFunctional:
    """Manufacture the continuous force a stress represents: body density
    -div(s) and boundary tractions from the Cauchy mapping."""
    div = divergence(s, dom, scheme)
    body = BodyForceDensity(tuple(scaled(g, -1.0) for g in div.components))
    return ForceFunctional(body, cauchy_all_faces(traction_extract(s), dom))


def equilibrium_residuals(s: VariationalStressDensity, f: ForceFunctional,
                          dom: ChartDomain,
                          scheme: FDScheme = FDScheme(),
                          samples: int = 17) -> tuple[float, float]:
    """Strong-form residuals: sup |div(s) + b| on an interior lattice and
    sup |t - Cauchy(P(s))| over face lattices; no faces give 0.0."""
    if f.fiber_dim != s.fiber_dim:
        raise ValueError(f"force has {f.fiber_dim} components, the stress {s.fiber_dim}")
    div = divergence(s, dom, scheme)
    interior = sup_norm(lambda X: div.value(X) + f.body.value(X), uniform_grid(dom, samples))

    tau = traction_extract(s)
    boundary = []
    for face in dom.faces():
        cf = cauchy_face_components(tau, face, dom)
        tf = f.on_face(face)
        boundary.append(sup_norm(lambda X: [ti(X) - ci(X) for ti, ci in zip(tf, cf)],
                                 face_grid(dom, face, samples)))
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
    rhs = virtual_power_of_force(force_from_stress(s, dom, scheme), v, dom, rule)
    return abs(lhs - rhs)
