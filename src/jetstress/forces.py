"""Continuous forces: body/surface densities, virtual power, symmetry generators.

Surface force components carry the face orientation sign folded in, so their
virtual power integrates against the plain (unsigned) face measure.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .chart import (
    BoundaryFace,
    ChartDomain,
    Evaluator,
    QuadratureRule,
    ScalarField,
    integrate_face,
    integrate_volume,
)
from .fields import constant_field, scaled
from .sections import Configuration, Section, VelocityField


# m coefficient fields b_i of dx^i tensor dX
BodyForceDensity = Section


@dataclass(frozen=True)
class ForceFunctional:
    """Continuous force: a body density plus, per boundary face, m coefficient
    fields t_i against the face volume element, orientation sign folded in."""

    body: BodyForceDensity
    surface: Mapping[BoundaryFace, tuple[ScalarField, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for face, t in self.surface.items():
            if len(t) != self.fiber_dim:
                raise ValueError(f"{face} carries {len(t)} traction components, "
                                 f"the body {self.fiber_dim}")

    @property
    def fiber_dim(self) -> int:
        return self.body.fiber_dim

    def on_face(self, face: BoundaryFace) -> tuple[ScalarField, ...]:
        """The traction on one face; a face missing from the surface carries zero."""
        if face in self.surface:
            return self.surface[face]
        return tuple(constant_field(0.0) for _ in range(self.fiber_dim))


def virtual_power_of_force(f: ForceFunctional, vs: Sequence[VelocityField], dom: ChartDomain,
                           rule: QuadratureRule = QuadratureRule()) -> np.ndarray:
    """f(v) = volume integral of b_i v^i plus the face integrals of t_i v^i for
    each v of vs, shape (len(vs),); an empty vs raises.  Each block of f is
    evaluated once per node set, against the velocities stacked on a leading
    axis, and each row is bitwise the power on the lone velocity."""
    if not vs:
        raise ValueError("no velocity fields")
    for v in vs:
        if f.fiber_dim != v.fiber_dim:
            raise ValueError(f"force has {f.fiber_dim} components, the velocity {v.fiber_dim}")

    def power(t: tuple[ScalarField, ...]) -> Evaluator:
        return lambda X: np.sum(np.stack([ti(X) for ti in t], axis=-1)
                                * np.stack([v.value(X) for v in vs]), axis=-1)

    total = integrate_volume(power(f.body.components), dom, rule)
    for face in dom.faces():
        total += integrate_face(power(f.on_face(face)), face, dom, rule)
    return total


def translation_generators(fiber_dim: int) -> dict[str, VelocityField]:
    """The unit translation along each fiber axis, by label."""
    return {f"translation_{i}": VelocityField(tuple(constant_field(1.0 if j == i else 0.0)
                                                    for j in range(fiber_dim)))
            for i in range(fiber_dim)}


def rotation_generator(kappa: Configuration, i: int, j: int) -> dict[str, VelocityField]:
    """Planar rotation generator v(X) = A . kappa(X) with A antisymmetric in
    the (i, j) fiber plane, by label; meaningful on trivial-bundle elasticity
    scenarios."""
    m = kappa.fiber_dim

    def comp(k: int) -> ScalarField:
        if k == i:
            return scaled(kappa.components[j], -1.0)
        if k == j:
            return kappa.components[i]
        return constant_field(0.0)

    return {f"rotation_{i}{j}": VelocityField(tuple(comp(k) for k in range(m)))}


def equilibrated_force_residual(f: ForceFunctional, gens: Mapping[str, VelocityField],
                                dom: ChartDomain,
                                rule: QuadratureRule = QuadratureRule()) -> dict[str, float]:
    """|f(v_gamma)| per label, from one evaluation of f for all generators (an
    empty mapping raises); all zero means f is equilibrated under them."""
    powers = virtual_power_of_force(f, tuple(gens.values()), dom, rule)
    return dict(zip(gens, np.abs(powers).tolist()))
