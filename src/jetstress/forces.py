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
from .sections import Configuration, VelocityField


@dataclass(frozen=True)
class BodyForceDensity:
    """m coefficient fields b_i of dx^i tensor dX."""

    components: tuple[ScalarField, ...]

    @property
    def fiber_dim(self) -> int:
        return len(self.components)

    def value(self, X) -> np.ndarray:
        return np.stack([f(X) for f in self.components], axis=-1)


@dataclass(frozen=True)
class SurfaceForceDensity:
    """Per boundary face, m coefficient fields t_i against the face volume
    element, orientation sign folded in.  Missing faces are zero."""

    components: Mapping[BoundaryFace, tuple[ScalarField, ...]]

    def on_face(self, face: BoundaryFace, fiber_dim: int) -> tuple[ScalarField, ...]:
        if face in self.components:
            return self.components[face]
        return tuple(constant_field(0.0) for _ in range(fiber_dim))


def zero_surface() -> SurfaceForceDensity:
    return SurfaceForceDensity({})


@dataclass(frozen=True)
class ForceFunctional:
    """Continuous force: a body density plus per-face surface densities."""

    body: BodyForceDensity
    surface: SurfaceForceDensity = field(default_factory=zero_surface)

    def __post_init__(self) -> None:
        for face, t in self.surface.components.items():
            if len(t) != self.fiber_dim:
                raise ValueError(f"{face} carries {len(t)} traction components, "
                                 f"the body {self.fiber_dim}")

    @property
    def fiber_dim(self) -> int:
        return self.body.fiber_dim


def virtual_power_of_force(f: ForceFunctional, v: VelocityField, dom: ChartDomain,
                           rule: QuadratureRule = QuadratureRule()) -> float:
    """f(v) = volume integral of b_i v^i plus the face integrals of t_i v^i."""
    if f.fiber_dim != v.fiber_dim:
        raise ValueError(f"force has {f.fiber_dim} components, the velocity {v.fiber_dim}")

    def power(t: tuple[ScalarField, ...]) -> Evaluator:
        return lambda X: np.sum(np.stack([ti(X) for ti in t], axis=-1) * v.value(X), axis=-1)

    total = integrate_volume(power(f.body.components), dom, rule)
    for face in dom.faces():
        total += integrate_face(power(f.surface.on_face(face, f.fiber_dim)), face, dom, rule)
    return total


@dataclass(frozen=True)
class GeneratorField:
    """A symmetry-generator velocity field at a given configuration."""

    label: str
    velocity: VelocityField


def translation_generators(dom: ChartDomain, fiber_dim: int) -> tuple[GeneratorField, ...]:
    gens = []
    for i in range(fiber_dim):
        comps = tuple(constant_field(1.0 if j == i else 0.0) for j in range(fiber_dim))
        gens.append(GeneratorField(f"translation_{i}", VelocityField(comps)))
    return tuple(gens)


def rotation_generator(kappa: Configuration, i: int, j: int) -> GeneratorField:
    """Planar rotation generator v(X) = A . kappa(X) with A antisymmetric in
    the (i, j) fiber plane; meaningful on trivial-bundle elasticity scenarios."""
    m = kappa.fiber_dim

    def comp(k: int) -> ScalarField:
        if k == i:
            return scaled(kappa.components[j], -1.0)
        if k == j:
            return kappa.components[i]
        return constant_field(0.0)

    return GeneratorField(f"rotation_{i}{j}", VelocityField(tuple(comp(k) for k in range(m))))


def equilibrated_force_residual(f: ForceFunctional, gens: Sequence[GeneratorField],
                                dom: ChartDomain,
                                rule: QuadratureRule = QuadratureRule()) -> dict[str, float]:
    """|f(v_gamma)| per generator; all zero means the force is equilibrated
    with respect to the supplied symmetry generators."""
    return {g.label: abs(virtual_power_of_force(f, g.velocity, dom, rule)) for g in gens}
