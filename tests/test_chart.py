import math

import numpy as np
import pytest

from jetstress import fields
from jetstress.chart import (
    BoundaryFace,
    ChartDomain,
    FDScheme,
    QuadratureRule,
    ScalarField,
    gradient,
    integrate_boundary,
    integrate_volume,
    partial_derivative,
    stokes_residual,
    sup_norm,
    uniform_grid,
)

UNIT2 = ChartDomain.unit(2)


class TestDomain:
    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            ChartDomain.box([(1.0, 1.0)])

    def test_faces_skip_periodic_axes(self):
        dom = ChartDomain.unit(2, periodic=[0])
        assert {(f.axis, f.side) for f in dom.faces()} == {(1, "lower"), (1, "upper")}

    def test_induced_sign(self):
        assert BoundaryFace(0, "upper").induced_sign == 1.0
        assert BoundaryFace(0, "lower").induced_sign == -1.0


class TestPartialDerivative:
    def test_linear_field(self):
        f = fields.coordinate_field(0)
        assert partial_derivative(f, 0, [0.3, 0.7], UNIT2) == pytest.approx(1.0, abs=1e-12)

    def test_constant_field(self):
        f = fields.constant_field(4.2)
        for axis in range(2):
            assert partial_derivative(f, axis, [0.5, 0.5], UNIT2) == pytest.approx(0.0, abs=1e-11)

    def test_periodic_sine(self):
        # analytic derivative of sin(2 pi X) at 0.25 is 2 pi cos(pi/2) = 0
        dom = ChartDomain.unit(1, periodic=[0])
        f = ScalarField(lambda X: math.sin(2 * math.pi * X[0]))
        got = partial_derivative(f, 0, [0.25], dom, FDScheme(1e-2, 4))
        assert got == pytest.approx(0.0, abs=1e-8)

    def test_periodic_wraps_across_edge(self):
        dom = ChartDomain.unit(1, periodic=[0])
        f = ScalarField(lambda X: math.sin(2 * math.pi * X[0]))
        got = partial_derivative(f, 0, [0.0], dom, FDScheme(1e-3, 4))
        assert got == pytest.approx(2 * math.pi, rel=1e-10)

    def test_one_sided_at_boundary_same_order(self):
        f = ScalarField(lambda X: math.exp(X[0]))
        got = partial_derivative(f, 0, [0.0, 0.5], UNIT2, FDScheme(1e-3, 4))
        assert got == pytest.approx(1.0, abs=1e-10)

    def test_order4_convergence_factor(self):
        # halving h must shrink the error by roughly 2^4
        f = ScalarField(lambda X: math.exp(X[0]))
        p = [0.5]
        dom = ChartDomain.unit(1)
        exact = math.exp(0.5)
        e1 = abs(partial_derivative(f, 0, p, dom, FDScheme(2e-2, 4)) - exact)
        e2 = abs(partial_derivative(f, 0, p, dom, FDScheme(1e-2, 4)) - exact)
        assert 12.0 <= e1 / e2 <= 20.0

    def test_axis_out_of_range(self):
        with pytest.raises(ValueError):
            partial_derivative(fields.constant_field(0.0), 2, [0.5, 0.5], UNIT2)

    def test_step_too_large(self):
        with pytest.raises(ValueError):
            partial_derivative(fields.constant_field(0.0), 0, [0.5, 0.5], UNIT2,
                               FDScheme(0.5, 4))


class TestIntegration:
    def test_unit_volume(self):
        assert integrate_volume(fields.constant_field(1.0), UNIT2) == pytest.approx(1.0, abs=1e-14)

    def test_bilinear_coefficient(self):
        f = ScalarField(lambda X: X[0] * X[1])
        assert integrate_volume(f, UNIT2, QuadratureRule(2)) == pytest.approx(0.25, abs=1e-12)

    def test_zero(self):
        assert integrate_volume(fields.constant_field(0.0), UNIT2) == 0.0

    @pytest.mark.parametrize("degs", [(0, 0), (3, 5), (15, 15), (7, 2)])
    def test_gauss_exactness(self, degs):
        # exact on per-axis degree <= 2q-1
        i, j = degs
        f = ScalarField(lambda X: X[0] ** i * X[1] ** j)
        exact = 1.0 / ((i + 1) * (j + 1))
        assert integrate_volume(f, UNIT2, QuadratureRule(8)) == pytest.approx(exact, abs=1e-12)

    def test_weights_positive(self):
        _, w = QuadratureRule(8, panels=3).axis_nodes(0.0, 1.0)
        assert np.all(w > 0)

    def test_boundary_upper(self):
        face = BoundaryFace(1, "upper")
        assert integrate_boundary(fields.constant_field(1.0), face, UNIT2) == pytest.approx(1.0)

    def test_boundary_lower_sign(self):
        face = BoundaryFace(1, "lower")
        assert integrate_boundary(fields.constant_field(1.0), face, UNIT2) == pytest.approx(-1.0)

    def test_boundary_zero(self):
        face = BoundaryFace(0, "upper")
        assert integrate_boundary(fields.constant_field(0.0), face, UNIT2) == 0.0

    def test_boundary_periodic_axis_rejected(self):
        dom = ChartDomain.unit(2, periodic=[0])
        with pytest.raises(ValueError):
            integrate_boundary(fields.constant_field(1.0), BoundaryFace(0, "upper"), dom)


class TestStokes:
    def test_coordinate_form(self):
        # omega = X2 (e_1 int dX): both sides equal 1
        omega = [fields.constant_field(0.0), fields.coordinate_field(1)]
        assert stokes_residual(omega, UNIT2) <= 1e-10

    def test_zero_form(self):
        omega = [fields.constant_field(0.0)] * 2
        assert stokes_residual(omega, UNIT2) == 0.0

    def test_compactly_supported_bump(self):
        # both sides must individually vanish: the boundary term by support,
        # the divergence because it integrates a compact field
        rule = QuadratureRule(8, panels=4)
        scheme = FDScheme()
        omega = [fields.poly_bump_field([(0.25, 0.75)] * 2, 0.8),
                 fields.poly_bump_field([(0.25, 0.75)] * 2, -1.2)]
        lhs = integrate_volume(
            ScalarField(lambda X: sum(partial_derivative(omega[a], a, X, UNIT2, scheme)
                                      for a in range(2))), UNIT2, rule)
        rhs = sum(integrate_boundary(omega[f.axis], f, UNIT2, rule) for f in UNIT2.faces())
        assert abs(lhs) <= 1e-8
        assert abs(rhs) <= 1e-8
        assert stokes_residual(omega, UNIT2, rule, scheme) <= 1e-8

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_polynomial_forms(self, d):
        rng = np.random.default_rng(d)
        dom = ChartDomain.unit(d)
        for _ in range(5):
            omega = [fields.random_polynomial(rng, d, 3) for _ in range(d)]
            assert stokes_residual(omega, dom, QuadratureRule(4), FDScheme(1e-2, 4)) <= 1e-6

    def test_periodic_axis_drops_face(self):
        dom = ChartDomain.unit(2, periodic=[0])
        omega = [fields.sine_field([(1.0, (1, 0), 0.0)]), fields.coordinate_field(1)]
        assert stokes_residual(omega, dom) <= 1e-9


def test_uniform_grid_shapes():
    grid = uniform_grid(UNIT2, samples=5)
    assert grid.shape == (25, 2)
    per = uniform_grid(ChartDomain.unit(1, periodic=[0]), samples=4)
    assert per.max() < 1.0  # duplicate endpoint dropped


def test_gradient_block_matches_partial_derivatives():
    fs = [fields.coordinate_field(0), ScalarField(lambda X: X[0] * X[1] ** 2)]
    X = np.array([0.3, 0.6])
    block = gradient(fs, X, UNIT2)
    assert block.shape == (2, 2)
    for i, f in enumerate(fs):
        for a in range(2):
            assert block[i, a] == partial_derivative(f, a, X, UNIT2)


class TestSupNorm:
    GRID = uniform_grid(UNIT2, samples=4)

    def test_scalar_field(self):
        f = ScalarField(lambda X: X[0] - 2.0 * X[1])
        expected = max(abs(X[0] - 2.0 * X[1]) for X in self.GRID)
        assert sup_norm(f, self.GRID) == expected == 2.0

    def test_array_valued_field(self):
        def f(X):
            return np.array([X[0] * X[1], -3.0 * X[0], 0.5])

        expected = max(abs(v) for X in self.GRID for v in f(X))
        assert sup_norm(f, self.GRID) == expected == 3.0

    def test_empty_point_set_raises(self):
        with pytest.raises(ValueError):
            sup_norm(fields.constant_field(1.0), np.empty((0, 2)))
