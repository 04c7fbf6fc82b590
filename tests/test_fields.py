"""The field kernels are bitwise equal to the formulas they replace: in-place
Horner to numpy's polyval, the bump evaluated inside its support only to the
bump raised to its power on every row."""
import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from jetstress import fields


def polyval_reference(coeffs, X):
    """Horner with numpy's polyval: every point at once along axis 0, then
    along each further axis."""
    v = P.polyval(X[..., 0], coeffs, tensor=True)
    for k in range(1, X.shape[-1]):
        v = P.polyval(X[..., k], v, tensor=False)
    return v


def bump_reference(support, amplitude, power, X):
    """The bump raised to its power on every row, then zeroed outside."""
    v = np.full(X.shape[:-1], float(amplitude))
    outside = np.zeros(X.shape[:-1], dtype=bool)
    for k, (a, b) in enumerate(support):
        t = X[..., k]
        outside |= (t <= a) | (t >= b)
        half = 0.5 * (b - a)
        v = v * ((t - a) * (b - t) / (half * half)) ** power
    return np.where(outside, 0.0, v)


class TestPolynomialField:
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("lead", [(), (0,), (2, 3), (37,)])
    def test_bitwise_equal_to_polyval(self, d, lead):
        rng = np.random.default_rng(30 + d)
        # uneven degrees per axis, constant along one axis when d > 1
        degrees = [(0, 4, 1, 2)[k] if d > 1 else 5 for k in range(d)]
        coeffs = rng.uniform(-1, 1, tuple(n + 1 for n in degrees))
        f = fields.polynomial_field(coeffs)
        X = rng.uniform(-1.5, 1.5, lead + (d,))
        got = f(X)
        want = polyval_reference(coeffs, X)
        if lead:
            assert got.shape == lead
            assert np.array_equal(got, want)
        else:
            assert isinstance(got, float) and got == float(want)

    def test_point_does_not_change(self):
        f = fields.polynomial_field(np.random.default_rng(35).uniform(-1, 1, (3, 4)))
        X = np.random.default_rng(36).uniform(0, 1, (9, 2))
        before = X.copy()
        f(X)
        assert np.array_equal(X, before)


class TestPolyBumpField:
    SUPPORT = [(0.25, 0.75), (0.1, 0.9), (0.3, 0.7)]

    def bump(self):
        return fields.poly_bump_field(self.SUPPORT, 1.3)

    def check(self, X):
        got = self.bump()(X)
        want = bump_reference(self.SUPPORT, 1.3, 6, X)
        assert np.shape(got) == want.shape
        assert np.array_equal(got, want, equal_nan=True)
        return got

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 15, 16, 17, 63, 101])
    def test_lengths_off_the_simd_width(self, n):
        X = np.random.default_rng(n).uniform(0, 1, (n, 3))
        self.check(X)

    def test_edges_outside_and_nan_rows(self):
        X = np.random.default_rng(40).uniform(0, 1, (23, 3))
        X[0] = [0.25, 0.5, 0.5]          # on a lower support edge
        X[1] = [0.5, 0.9, 0.5]           # on an upper support edge
        X[2] = [0.5, 0.5, 0.3 + 1e-16]   # just inside
        X[3] = [1.2, 0.5, 0.5]           # outside
        X[4] = [np.nan, 0.5, 0.5]        # NaN inside on the other axes
        X[5] = [np.nan, 0.95, 0.5]       # NaN, but outside on another axis
        X[6] = [np.nan] * 3
        got = self.check(X)
        assert got[0] == got[1] == got[3] == got[5] == 0.0
        assert got[2] > 0.0 and np.isnan(got[4]) and np.isnan(got[6])

    def test_all_outside_and_empty_sets(self):
        outside = np.random.default_rng(41).uniform(0.8, 1.0, (12, 3))
        assert np.array_equal(self.check(outside), np.zeros(12))
        assert self.check(np.empty((0, 3))).shape == (0,)

    @pytest.mark.parametrize("x", [[0.5, 0.5, 0.5], [0.26, 0.12, 0.69], [0.75, 0.5, 0.5],
                                   [np.nan, 0.5, 0.5]])
    def test_single_point(self, x):
        got = self.bump()(x)
        assert isinstance(got, float)
        batch = self.bump()(np.array([x] * 3))
        assert np.array_equal([got] * 3, batch, equal_nan=True)
        assert np.array_equal(got, bump_reference(self.SUPPORT, 1.3, 6, np.array([x]))[0],
                              equal_nan=True)

    def test_multi_axis_point_set(self):
        X = np.random.default_rng(42).uniform(0, 1, (4, 5, 3))
        assert self.check(X).shape == (4, 5)
