"""Coefficient field constructors: polynomials, sine modes, compact bumps.

The seeded families here feed both the scenario runner and the test suite,
so the randomization is always through an explicit generator.
"""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .chart import ScalarField, Scaled


def constant_field(c: float) -> ScalarField:
    c = float(c)
    return ScalarField(lambda X: np.full(np.shape(X)[:-1], c))


def polynomial_field(coeffs) -> ScalarField:
    """Multivariate polynomial; coeffs[i0, ..., i_{d-1}] multiplies
    X0^i0 * ... * X_{d-1}^i_{d-1}.  Horner along axis 0 for every point at
    once, then along each further axis: the buffer starts as c[-1] * x, or
    c[0] * 1 on an axis of degree 0, and every further step runs in place on
    it (v += c; v *= x).  These are the products and sums of numpy's
    polyval, so at finite points the values are bitwise equal to it, except
    that a leading -0.0 coefficient is not turned into +0.0 by polyval's x*0."""
    coeffs = np.asarray(coeffs, dtype=float)

    def ev(X: np.ndarray) -> np.ndarray:
        v = coeffs.reshape(coeffs.shape + (1,) * (X.ndim - 1))
        for k in range(X.shape[-1]):
            # a contiguous copy of the coordinate steps faster than the strided column
            x, c = X[..., k].copy(), v
            v = np.multiply(c[-1], x if len(c) > 1 else np.ones_like(x))
            for j in range(len(c) - 2, -1, -1):
                v += c[j]
                if j:
                    v *= x
        return v

    return ScalarField(ev)


def random_polynomial(rng: np.random.Generator, dim: int, degree: int = 3) -> ScalarField:
    coeffs = rng.uniform(-1.0, 1.0, size=(degree + 1,) * dim)
    return polynomial_field(coeffs)


def sine_field(modes: Sequence[tuple[float, Sequence[int], float]]) -> ScalarField:
    """Sum of amp * sin(2*pi*(k . X) + phase) over (amp, k, phase) triples.

    Integer wavevectors keep the field periodic on the unit box.
    """
    modes = [(float(a), np.asarray(k, dtype=float), float(p)) for a, k, p in modes]

    def ev(X: np.ndarray) -> np.ndarray:
        return sum(a * np.sin(2.0 * math.pi * (X @ k) + p) for a, k, p in modes)

    return ScalarField(ev)


def random_sine_field(rng: np.random.Generator, dim: int, n_modes: int = 2,
                      max_mode: int = 2) -> ScalarField:
    modes = []
    for _ in range(n_modes):
        amp = rng.uniform(-1.0, 1.0)
        k = rng.integers(-max_mode, max_mode + 1, size=dim)
        if not np.any(k):
            k[0] = 1
        phase = rng.uniform(0.0, 2.0 * math.pi)
        modes.append((amp, k, phase))
    return sine_field(modes)


def poly_bump_field(support: Sequence[Sequence[float]], amplitude: float) -> ScalarField:
    """Piecewise-polynomial compact bump ((t-a)(b-t))^6 per axis, scaled to
    `amplitude` at the center; C^5 across the support edges.

    It stays exactly Gauss-integrable: with quadrature panels aligned to the
    support edges the integrand is a polynomial on every panel.  Only the
    rows inside the open support (and NaN rows, which stay NaN) are raised
    to the power 6; every other row is 0.0.  A single point takes the same
    array path as a point set, so its value is bitwise the same as in a batch.
    """
    support = [(float(a), float(b)) for a, b in support]
    amplitude = float(amplitude)

    def ev(X: np.ndarray) -> np.ndarray:
        outside = np.zeros(X.shape[:-1], dtype=bool)
        for k, (a, b) in enumerate(support):
            t = X[..., k]
            outside |= (t <= a) | (t >= b)
        inside = ~outside
        Y = X[inside]
        v = np.full(len(Y), amplitude)
        for k, (a, b) in enumerate(support):
            t = Y[:, k]
            half = 0.5 * (b - a)
            v = v * ((t - a) * (b - t) / (half * half)) ** 6
        out = np.zeros(X.shape[:-1])
        out[inside] = v
        return out

    return ScalarField(ev)


def scaled(f: ScalarField, c: float) -> ScalarField:
    return ScalarField(Scaled(float(c), f))

