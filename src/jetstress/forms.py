"""Differential forms on the chart box: wedge, exterior derivative, flat
Hodge star, and the p-form electrodynamics power expression.

Components are stored on strictly increasing multi-indices, so antisymmetry
is structural; all sign bookkeeping goes through one shuffle-sign routine.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .chart import (
    ChartDomain,
    FDScheme,
    QuadratureRule,
    ScalarField,
    integrate_volume,
    partial_derivative,
    sup_norm,
    uniform_grid,
)
from .fields import constant_field, scaled

Index = tuple[int, ...]


def shuffle_sign(I: Sequence[int], J: Sequence[int]) -> int:
    """Parity of sorting the concatenation (I, J); 0 if indices repeat."""
    seq = list(I) + list(J)
    if len(set(seq)) != len(seq):
        return 0
    inv = sum(1 for a in range(len(seq)) for b in range(a + 1, len(seq))
              if seq[a] > seq[b])
    return -1 if inv % 2 else 1


@dataclass(frozen=True)
class PForm:
    """Degree-p form; components keyed by strictly increasing index tuples.
    Missing components are zero; a 0-form has the single key ()."""

    degree: int
    dim: int
    components: Mapping[Index, ScalarField]

    def __post_init__(self) -> None:
        if not 0 <= self.degree <= self.dim:
            raise ValueError(f"degree {self.degree} out of range for dim {self.dim}")
        for idx in self.components:
            if len(idx) != self.degree or list(idx) != sorted(set(idx)):
                raise ValueError(f"bad multi-index {idx} for degree {self.degree}")
            if idx and not (0 <= idx[0] and idx[-1] < self.dim):
                raise ValueError(f"index {idx} out of range")

    def component(self, idx: Index) -> ScalarField:
        return self.components.get(tuple(idx), constant_field(0.0))

    def indices(self):
        return itertools.combinations(range(self.dim), self.degree)


def zero_form(degree: int, dim: int) -> PForm:
    return PForm(degree, dim, {})


def form_sup_norm(a: PForm, dom: ChartDomain, samples: int) -> float:
    return sup_norm(lambda X: [f(X) for f in a.components.values()], uniform_grid(dom, samples))


@dataclass(frozen=True)
class FlatMetric:
    """Constant diagonal metric given by its signature entries (+1 or -1)."""

    signature: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(s not in (1, -1) for s in self.signature):
            raise ValueError("signature entries must be +1 or -1")

    @property
    def dim(self) -> int:
        return len(self.signature)

    @property
    def det_sign(self) -> int:
        return 1 if sum(1 for s in self.signature if s < 0) % 2 == 0 else -1


def minkowski() -> FlatMetric:
    """Signature (-,+,+,+) with axis 0 timelike."""
    return FlatMetric((-1, 1, 1, 1))


def wedge(a: PForm, b: PForm) -> PForm:
    """Alternating product with shuffle signs; graded anticommutative."""
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    if a.degree + b.degree > a.dim:
        raise ValueError("degree overflow in wedge product")
    terms: dict[Index, list[tuple[int, ScalarField, ScalarField]]] = {}
    for I, fa in a.components.items():
        for J, fb in b.components.items():
            sgn = shuffle_sign(I, J)
            if sgn == 0:
                continue
            key = tuple(sorted(I + J))
            terms.setdefault(key, []).append((sgn, fa, fb))

    def combine(parts):
        return ScalarField(lambda X: sum(s * fa(X) * fb(X) for s, fa, fb in parts))

    return PForm(a.degree + b.degree, a.dim,
                 {key: combine(parts) for key, parts in terms.items()})


def exterior_derivative(a: PForm, dom: ChartDomain,
                        scheme: FDScheme = FDScheme()) -> PForm:
    """Componentwise alternating-sum exterior derivative via finite differences.
    The derivative of a top-degree form is the zero form, by convention."""
    if a.dim != dom.dim:
        raise ValueError("form dimension does not match domain")
    if a.degree == a.dim:
        return zero_form(a.dim, a.dim)
    terms: dict[Index, list[tuple[int, int, ScalarField]]] = {}
    for I, f in a.components.items():
        for ax in range(a.dim):
            sgn = shuffle_sign((ax,), I)
            if sgn == 0:
                continue
            key = tuple(sorted(I + (ax,)))
            terms.setdefault(key, []).append((sgn, ax, f))

    def combine(parts):
        return ScalarField(
            lambda X: sum(s * partial_derivative(f, ax, X, dom, scheme)
                          for s, ax, f in parts))

    return PForm(a.degree + 1, a.dim,
                 {key: combine(parts) for key, parts in terms.items()})


def hodge_star(a: PForm, metric: FlatMetric) -> PForm:
    """Complement-index star for a constant diagonal metric:
    *(dx^I) = (product of metric inverses over I) * sign(I, I^c) * dx^(I^c)."""
    if metric.dim != a.dim:
        raise ValueError("metric dimension mismatch")
    comps: dict[Index, ScalarField] = {}
    for I, f in a.components.items():
        Ic = tuple(i for i in range(a.dim) if i not in I)
        coef = float(shuffle_sign(I, Ic))
        for i in I:
            coef *= metric.signature[i]
        comps[Ic] = scaled(f, coef)
    return PForm(a.dim - a.degree, a.dim, comps)


def pform_virtual_power(g: PForm, v: PForm, b: PForm | None, dom: ChartDomain,
                        rule: QuadratureRule = QuadratureRule(),
                        scheme: FDScheme = FDScheme()) -> float:
    """Power expended on a p-form velocity v by a form-valued traction g:
    the integral of  dg ^ v + (-1)^(d-p-1) g ^ dv + b."""
    d = dom.dim
    p = v.degree
    if g.degree != d - p - 1:
        raise ValueError(f"traction form must have degree {d - p - 1}, got {g.degree}")
    if b is not None and b.degree != d:
        raise ValueError("source term must be a top-degree form")
    current = exterior_derivative(g, dom, scheme)
    dv = exterior_derivative(v, dom, scheme)
    sign = -1.0 if (d - p - 1) % 2 else 1.0
    top = tuple(range(d))
    t1 = wedge(current, v).component(top)
    t2 = wedge(g, dv).component(top)
    t3 = b.component(top) if b is not None else constant_field(0.0)

    def coeff(X: np.ndarray) -> float:
        return t1(X) + sign * t2(X) + t3(X)

    return integrate_volume(coeff, dom, rule)


def maxwell_fields(A: PForm, metric: FlatMetric, dom: ChartDomain,
                   scheme: FDScheme) -> tuple[PForm, PForm]:
    """Field strength F = dA and source J = d(*F) of a potential 1-form on a
    periodic 4-box."""
    if dom.dim != 4 or A.dim != 4 or A.degree != 1:
        raise ValueError("needs a 1-form potential on a 4-dimensional box")
    if any(not dom.is_periodic(a) for a in range(4)):
        raise ValueError("the vacuum check runs on a fully periodic box")
    F = exterior_derivative(A, dom, scheme)
    return F, exterior_derivative(hodge_star(F, metric), dom, scheme)


def maxwell_vacuum_check(A: PForm, metric: FlatMetric, dom: ChartDomain,
                         scheme: FDScheme = FDScheme(),
                         samples: int = 9) -> tuple[float, float]:
    """Vacuum Maxwell residuals for a potential 1-form on a periodic 4-box:
    sup norms of d(dA) (field-strength closure) and of d(*dA) (source)."""
    F, J = maxwell_fields(A, metric, dom, scheme)
    dF = exterior_derivative(F, dom, scheme)
    return form_sup_norm(dF, dom, samples), form_sup_norm(J, dom, samples)
