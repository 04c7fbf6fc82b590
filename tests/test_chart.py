import inspect
import itertools
import math
import weakref
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from jetstress import chart, fields
from jetstress.chart import (
    BoundaryFace,
    ChartDomain,
    FDScheme,
    QuadratureRule,
    ScalarField,
    _fd_weights,
    _shift_weights,
    _stencil_shifts,
    face_grid,
    face_nodes,
    fd_divergence,
    integrate_boundary,
    integrate_volume,
    jet,
    partial_derivative,
    stokes_residual,
    sup_norm,
    uniform_grid,
    volume_nodes,
)

UNIT2 = ChartDomain.unit(2)


class TestDomain:
    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            ChartDomain.box([(1.0, 1.0)])

    @pytest.mark.parametrize("bounds", [(0.0, math.inf), (-math.inf, 1.0), (0.0, math.nan)])
    def test_rejects_a_non_finite_interval(self, bounds):
        with pytest.raises(ValueError, match="not finite"):
            ChartDomain.box([(0.0, 1.0), bounds])

    @pytest.mark.parametrize("periodic", [[5], [-1], [2], [0, 2]])
    def test_rejects_periodic_axis_outside_the_box(self, periodic):
        with pytest.raises(ValueError, match="periodic axes"):
            ChartDomain.box([(0, 1), (0, 1)], periodic=periodic)

    def test_faces_skip_periodic_axes(self):
        dom = ChartDomain.unit(2, periodic=[0])
        assert {(f.axis, f.side) for f in dom.faces()} == {(1, "lower"), (1, "upper")}

    def test_induced_sign(self):
        assert BoundaryFace(0, "upper").induced_sign == 1.0
        assert BoundaryFace(0, "lower").induced_sign == -1.0


class TestPartialDerivative:
    def test_linear_field(self):
        f = ScalarField(lambda X: X[..., 0])
        assert partial_derivative(f, 0, [0.3, 0.7], UNIT2) == pytest.approx(1.0, abs=1e-12)

    def test_constant_field(self):
        f = fields.constant_field(4.2)
        for axis in range(2):
            assert partial_derivative(f, axis, [0.5, 0.5], UNIT2) == pytest.approx(0.0, abs=1e-11)

    def test_periodic_sine(self):
        # analytic derivative of sin(2 pi X) at 0.25 is 2 pi cos(pi/2) = 0
        dom = ChartDomain.unit(1, periodic=[0])
        f = ScalarField(lambda X: np.sin(2 * math.pi * X[..., 0]))
        got = partial_derivative(f, 0, [0.25], dom, FDScheme(1e-2, 4))
        assert got == pytest.approx(0.0, abs=1e-8)

    def test_periodic_wraps_across_edge(self):
        dom = ChartDomain.unit(1, periodic=[0])
        f = ScalarField(lambda X: np.sin(2 * math.pi * X[..., 0]))
        got = partial_derivative(f, 0, [0.0], dom, FDScheme(1e-3, 4))
        assert got == pytest.approx(2 * math.pi, rel=1e-10)

    def test_one_sided_at_boundary_same_order(self):
        f = ScalarField(lambda X: np.exp(X[..., 0]))
        got = partial_derivative(f, 0, [0.0, 0.5], UNIT2, FDScheme(1e-3, 4))
        assert got == pytest.approx(1.0, abs=1e-10)

    def test_order4_convergence_factor(self):
        # halving h must shrink the error by roughly 2^4
        f = ScalarField(lambda X: np.exp(X[..., 0]))
        p = [0.5]
        dom = ChartDomain.unit(1)
        exact = math.exp(0.5)
        e1 = abs(partial_derivative(f, 0, p, dom, FDScheme(2e-2, 4)) - exact)
        e2 = abs(partial_derivative(f, 0, p, dom, FDScheme(1e-2, 4)) - exact)
        assert 12.0 <= e1 / e2 <= 20.0

    @staticmethod
    def rational_weights(offsets):
        """Solve sum_j w_j o_j**k = [k == 1], k < len(offsets), by Gauss-Jordan
        elimination in exact rationals."""
        n = len(offsets)
        rows = [[Fraction(o) ** k for o in offsets] + [Fraction(k == 1)] for k in range(n)]
        for c in range(n):
            pivot = next(i for i in range(c, n) if rows[i][c])
            rows[c], rows[pivot] = rows[pivot], rows[c]
            rows[c] = [v / rows[c][c] for v in rows[c]]
            for i in range(n):
                if i != c:
                    rows[i] = [a - rows[i][c] * b for a, b in zip(rows[i], rows[c])]
        return [row[-1] for row in rows]

    @pytest.mark.parametrize("r", [1, 2])
    def test_weights_are_exact_rationals_rounded_once(self, r):
        for s in range(-r, r + 1):
            offsets = tuple(range(s - r, s + r + 1))
            exact = self.rational_weights(offsets)
            for k in range(2 * r + 1):
                assert sum(w * o**k for w, o in zip(exact, offsets)) == (k == 1)
            got = _fd_weights(offsets)
            assert got.tolist() == [float(w) for w in exact]
            assert np.array_equal(_shift_weights(r)[:, s + r], got)
        centre = _fd_weights(tuple(range(-r, r + 1)))[r]
        assert centre == 0.0 and math.copysign(1.0, centre) == 1.0

    @pytest.mark.parametrize("periodic", [[0], []])
    def test_an_unshifted_derivative_never_evaluates_its_own_point(self, periodic):
        # where no point of the set shifts its stencil, the zero-weight centre
        # row is left out, so a centre value that is not finite does not reach
        # the derivative, on a periodic and on a boundary axis alike
        dom = ChartDomain.unit(1, periodic=periodic)
        nan_at = [0.5]
        f, rows = TestBatchedProtocol.counted(
            lambda X: np.where(np.isin(X[..., 0], nan_at), np.nan, X[..., 0]))
        assert partial_derivative(f, 0, [0.5], dom) == pytest.approx(1.0, abs=1e-10)
        assert rows == [4]
        # within stencil reach of a face every point of the set takes the
        # shifted path's order + 1 rows, which probe the point itself
        rows.clear()
        got = partial_derivative(f, 0, [[0.5], [1e-3]], dom)
        if periodic:
            # no stencil shifts there: 1e-3 wraps across the seam instead
            assert rows == [8] and got[0] == pytest.approx(1.0, abs=1e-10)
        else:
            assert rows == [10] and math.isnan(got[0]) and got[1] == pytest.approx(1.0)
            nan_at[:] = [1e-3]
            assert math.isnan(partial_derivative(f, 0, [1e-3], dom))

    def test_axis_out_of_range(self):
        with pytest.raises(ValueError):
            partial_derivative(fields.constant_field(0.0), 2, [0.5, 0.5], UNIT2)

    @staticmethod
    def error_and_roundoff(dim, scheme, degree, seed):
        """Largest error of partial_derivative, and of gradient, against
        polyder of a random_polynomial's coefficient tensor, evaluated by
        numpy's polyval, over grid, boundary and random rows of the unit box;
        and the roundoff bound (sum of |weights|) * eps * (sum of
        |coefficients|) / h of an exact stencil there."""
        dom = ChartDomain.unit(dim)
        polyval = {1: P.polyval, 2: P.polyval2d, 3: P.polyval3d}[dim]
        rng = np.random.default_rng(dim)
        X = np.concatenate([uniform_grid(dom, 9 if dim < 3 else 5), rng.uniform(0, 1, (50, dim))])
        coeffs = np.random.default_rng(seed).uniform(-1, 1, (degree + 1,) * dim)
        f = fields.random_polynomial(np.random.default_rng(seed), dim, degree)
        np.testing.assert_allclose(f(X), polyval(*X.T, coeffs), rtol=0, atol=1e-13)
        block = jet([f], X, dom, scheme)[1][:, 0, :]
        error = 0.0
        for a in range(dim):
            pd = partial_derivative(f, a, X, dom, scheme)
            assert np.array_equal(pd, block[:, a])
            error = max(error, np.max(np.abs(pd - polyval(*X.T, P.polyder(coeffs, axis=a)))))
        abs_weights = np.abs(_shift_weights(scheme.order // 2)).sum(axis=0).max()
        return error, abs_weights * np.finfo(float).eps * np.abs(coeffs).sum() / scheme.step

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("scheme", [FDScheme(1e-3, 4), FDScheme(1e-2, 4), FDScheme(1e-2, 2)],
                             ids=repr)
    def test_exact_for_polynomials_up_to_the_order(self, dim, scheme):
        # an order-k stencil differentiates degree <= k exactly at every row,
        # one-sided ones included, so what is left is roundoff, not O(h**k)
        for seed in range(3):
            error, roundoff = self.error_and_roundoff(dim, scheme, scheme.order, seed)
            assert error <= roundoff

    @pytest.mark.parametrize("order", [2, 4])
    def test_one_degree_more_exceeds_the_roundoff_bound(self, order):
        error, roundoff = self.error_and_roundoff(2, FDScheme(1e-2, order), order + 1, 0)
        assert error > 100 * roundoff

    @pytest.mark.parametrize("step", [math.nan, math.inf, 0.0, -1e-3])
    def test_step_must_be_finite_and_positive(self, step):
        with pytest.raises(ValueError, match="finite and positive"):
            FDScheme(step)

    def test_step_too_large(self):
        with pytest.raises(ValueError):
            partial_derivative(fields.constant_field(0.0), 0, [0.5, 0.5], UNIT2,
                               FDScheme(0.5, 4))


class TestIntegration:
    def test_unit_volume(self):
        assert integrate_volume(fields.constant_field(1.0), UNIT2) == pytest.approx(1.0, abs=1e-14)

    def test_bilinear_coefficient(self):
        f = ScalarField(lambda X: X[..., 0] * X[..., 1])
        assert integrate_volume(f, UNIT2, QuadratureRule(2)) == pytest.approx(0.25, abs=1e-12)

    def test_zero(self):
        assert integrate_volume(fields.constant_field(0.0), UNIT2) == 0.0

    @pytest.mark.parametrize("degs", [(0, 0), (3, 5), (15, 15), (7, 2)])
    def test_gauss_exactness(self, degs):
        # exact on per-axis degree <= 2q-1
        i, j = degs
        f = ScalarField(lambda X: X[..., 0] ** i * X[..., 1] ** j)
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

    def test_leading_axes_give_one_integral_per_row(self):
        rng = np.random.default_rng(9)
        fs = [fields.random_polynomial(rng, 2, 3) for _ in range(6)]
        rule = QuadratureRule(5, panels=2)
        rows = [integrate_volume(f, UNIT2, rule) for f in fs]
        stacked = integrate_volume(lambda X: np.stack([f(X) for f in fs]), UNIT2, rule)
        assert stacked.shape == (6,)
        assert all(stacked[j] == rows[j] for j in range(6))
        grid = integrate_volume(lambda X: np.stack([f(X) for f in fs]).reshape(2, 3, -1),
                                UNIT2, rule)
        assert np.array_equal(grid, stacked.reshape(2, 3))

    def test_strided_rows_integrate_bitwise_like_contiguous_ones(self):
        # values laid out point-major, as a pairing of jets stacked on a
        # leading axis returns them; a reduction over strided rows sums them in
        # another order
        rng = np.random.default_rng(10)
        fs = [fields.random_polynomial(rng, 2, 3) for _ in range(10)]
        rule = QuadratureRule(8, panels=4)
        rows = [integrate_volume(f, UNIT2, rule) for f in fs]
        strided = integrate_volume(lambda X: np.stack([f(X) for f in fs], axis=-1).T, UNIT2, rule)
        assert strided.tolist() == rows

    def test_constant_coefficient_broadcasts(self):
        assert integrate_volume(lambda X: 2.0, UNIT2) == pytest.approx(2.0, abs=1e-14)
        per_row = integrate_volume(lambda X: np.array([[1.0], [-3.0]]), UNIT2)
        assert per_row == pytest.approx([1.0, -3.0], abs=1e-14)

    def test_leading_axes_must_end_in_the_node_axis(self):
        with pytest.raises(ValueError):
            integrate_volume(lambda X: np.ones((len(X), 3)), UNIT2)


class TestStokes:
    def test_coordinate_form(self):
        # omega = X2 (e_1 int dX): both sides equal 1
        omega = [fields.constant_field(0.0), ScalarField(lambda X: X[..., 1])]
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

    @pytest.mark.parametrize("count", [1, 3])
    def test_one_component_per_axis(self, count):
        # a missing component would be a silent partial divergence
        omega = [ScalarField(lambda X: X[..., 0])] * count
        with pytest.raises(ValueError, match="one component per axis"):
            fd_divergence(omega, [[0.5, 0.5]], UNIT2)
        with pytest.raises(ValueError, match="one component per axis"):
            stokes_residual(omega, UNIT2)

    def test_periodic_axis_drops_face(self):
        dom = ChartDomain.unit(2, periodic=[0])
        omega = [fields.sine_field([(1.0, (1, 0), 0.0)]), ScalarField(lambda X: X[..., 1])]
        assert stokes_residual(omega, dom) <= 1e-9


def test_uniform_grid_shapes():
    grid = uniform_grid(UNIT2, samples=5)
    assert grid.shape == (25, 2)
    per = uniform_grid(ChartDomain.unit(1, periodic=[0]), samples=4)
    assert per.max() < 1.0  # duplicate endpoint dropped


def test_jet_matches_values_and_partial_derivatives():
    fs = [ScalarField(lambda X: X[..., 0]), ScalarField(lambda X: X[..., 0] * X[..., 1] ** 2)]
    X = np.array([0.3, 0.6])
    values, block = jet(fs, X, UNIT2)
    assert values.shape == (2,) and block.shape == (2, 2)
    for i, f in enumerate(fs):
        assert values[i] == f(X)
        for a in range(2):
            assert block[i, a] == partial_derivative(f, a, X, UNIT2)


class TestJet:
    """`jet` calls each field once, on the points followed by every axis's
    stencil rows; its values are bitwise the fields' and each gradient entry
    is bitwise the field's own partial_derivative."""

    SCHEMES = [FDScheme(1e-3, 4), FDScheme(2e-2, 2)]
    DOMAINS = [ChartDomain.unit(2), ChartDomain.unit(2, periodic=[0]),
               ChartDomain.unit(2, periodic=[0, 1])]

    @staticmethod
    def fields_of(seed, count=3):
        rng = np.random.default_rng(seed)
        return [fields.random_polynomial(rng, 2, 3) for _ in range(count - 1)] + \
            [fields.random_sine_field(rng, 2)]

    @staticmethod
    def reference(fs, X, dom, scheme):
        X = np.asarray(X, dtype=float)
        return np.array([[partial_derivative(f, a, X, dom, scheme) for a in range(dom.dim)]
                         for f in fs]).transpose(tuple(range(2, X.ndim + 1)) + (0, 1))

    @staticmethod
    def all_shift_groups():
        # rows at both faces, within stencil reach of them, and interior, on both axes
        x = np.array([0.0, 1e-3, 2e-3, 0.5, 0.3, 1 - 2e-3, 1 - 1e-3, 1.0, 0.02, 0.97])
        return np.stack([x, x[::-1]], axis=-1)

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("dom", DOMAINS)
    def test_matches_partial_derivative_in_every_shift_group(self, dom, scheme):
        pts = self.all_shift_groups()
        r = scheme.order // 2
        assert set(_stencil_shifts(pts[:, 0], 0.0, 1.0, scheme.step, r)) == set(range(-r, r + 1))
        fs = self.fields_of(20)
        values, got = jet(fs, pts, dom, scheme)
        assert values.shape == (len(pts), len(fs)) and got.shape == (len(pts), len(fs), 2)
        assert np.array_equal(values, np.stack([f(pts) for f in fs], axis=-1))
        assert np.array_equal(got, self.reference(fs, pts, dom, scheme))
        # and the parent's arithmetic, one field call per stencil offset
        for i, f in enumerate(fs):
            for a in range(2):
                assert np.array_equal(got[:, i, a],
                                      TestBatchedProtocol.per_offset(f, a, pts, dom, scheme))

    @pytest.mark.parametrize("dom", DOMAINS)
    def test_empty_multi_axis_and_single_point_sets(self, dom):
        fs = self.fields_of(21)
        values, empty = jet(fs, np.empty((0, 2)), dom)
        assert values.shape == (0, 3) and empty.shape == (0, 3, 2)
        pts = np.random.default_rng(22).uniform(0, 1, (2, 3, 2))
        pts[0, 0] = [0.0, 1.0]
        values, got = jet(fs, pts, dom)
        assert values.shape == (2, 3, 3) and got.shape == (2, 3, 3, 2)
        assert np.array_equal(values, np.stack([f(pts) for f in fs], axis=-1))
        assert np.array_equal(got, self.reference(fs, pts, dom, FDScheme()))
        flat = jet(fs, pts.reshape(-1, 2), dom)
        assert np.array_equal(values.reshape(6, 3), flat[0])
        assert np.array_equal(got.reshape(6, 3, 2), flat[1])
        values, point = jet(fs, [1e-3, 0.4], dom)
        assert values.shape == (3,) and point.shape == (3, 2)
        assert values.tolist() == [f([1e-3, 0.4]) for f in fs]
        assert np.array_equal(point, self.reference(fs, [1e-3, 0.4], dom, FDScheme()))

    @pytest.mark.parametrize("dom", DOMAINS)
    def test_values_are_bitwise_the_fields(self, dom):
        # a one-point set and many fields, where a reduction over the field
        # axis would sum pairwise
        rng = np.random.default_rng(25)
        fs = [fields.random_polynomial(rng, 2, 3) for _ in range(6)] + \
            [fields.random_sine_field(rng, 2) for _ in range(3)] + \
            [fields.poly_bump_field([(0.1, 0.9), (0.2, 0.8)], 1.3)]
        for pts in (np.array([[0.3, 0.7]]), np.array([[1e-3, 1.0]]), self.all_shift_groups(),
                    volume_nodes(dom, QuadratureRule(3, panels=2))[0]):
            values, _ = jet(fs, pts, dom)
            for i, f in enumerate(fs):
                assert np.array_equal(values[:, i], f(pts))

    def test_one_call_per_field_on_the_points_and_every_kept_stencil_row(self):
        # k_a = order rows per point on an axis where no point shifts its
        # stencil, order + 1 on one where some point does
        dom = ChartDomain.unit(3, periodic=[1])
        pts = volume_nodes(dom, QuadratureRule(2))[0].copy()
        pts[0, 2] = 1e-3
        rng = np.random.default_rng(26)
        for scheme in (FDScheme(1e-3, 4), FDScheme(2e-2, 2)):
            counted = [TestBatchedProtocol.counted(fields.random_polynomial(rng, 3, 2))
                       for _ in range(3)]
            jet([f for f, _ in counted], pts, dom, scheme)
            k = scheme.order
            for _, rows in counted:
                assert rows == [len(pts) + k * len(pts) + k * len(pts) + (k + 1) * len(pts)]

    @pytest.mark.parametrize("dom", DOMAINS)
    def test_a_nan_at_a_point_reaches_the_values(self, dom):
        pts = self.all_shift_groups()
        bad = pts[3]
        f = ScalarField(lambda X: np.where(np.all(X == bad, axis=-1), np.nan, X[..., 0]))
        values, _ = jet([fields.constant_field(1.0), f], pts, dom)
        assert np.isnan(values[3, 1]) and np.isfinite(np.delete(values, 3, axis=0)).all()
        assert np.all(values[:, 0] == 1.0)

    @pytest.mark.parametrize("dom", DOMAINS)
    def test_rows_beyond_the_limit_go_in_chunks(self, dom, monkeypatch):
        monkeypatch.setattr(chart, "_FD_ROWS", 7)
        pts = self.all_shift_groups()
        counted = [TestBatchedProtocol.counted(f) for f in self.fields_of(23)]
        values, got = jet([f for f, _ in counted], pts, dom)
        # the point itself, then order + 1 rows per point on a boundary axis
        # with points within reach of a face, order on a periodic one
        per_point = 1 + sum(4 if dom.is_periodic(a) else 5 for a in range(2))
        for _, rows in counted:
            assert max(rows) == 7 and sum(rows) == per_point * len(pts)
        assert np.array_equal(values, np.stack([f(pts) for f in self.fields_of(23)], axis=-1))
        assert np.array_equal(got, self.reference(self.fields_of(23), pts, dom, FDScheme()))

    @pytest.mark.parametrize("count", [1, 4])
    def test_one_stencil_per_axis_for_any_number_of_fields(self, count, monkeypatch):
        dom = ChartDomain.unit(3, periodic=[1])
        shift_calls = []

        def counted_shifts(x, *args):
            shift_calls.append(len(x))
            return _stencil_shifts(x, *args)

        monkeypatch.setattr(chart, "_stencil_shifts", counted_shifts)
        rng = np.random.default_rng(24)
        counted = [TestBatchedProtocol.counted(fields.random_polynomial(rng, 3, 2))
                   for _ in range(count)]
        # a copy, not the shared lattice, so that no stencil is kept from an
        # earlier call and each one builds its own
        pts = uniform_grid(dom, 3).copy()
        jet([f for f, _ in counted], pts, dom)
        # the two boundary axes, whatever the number of fields
        assert shift_calls == [len(pts), len(pts)]
        for _, rows in counted:
            assert rows == [(1 + 5 + 4 + 5) * len(pts)]


class TestSharedNodeSets:
    """Node sets are built once and shared read-only; the stencils of a node
    set are kept, those of any other point set are built on every call."""

    DOM = ChartDomain.unit(2, periodic=[1])
    RULE = QuadratureRule(3, panels=2)
    FACE = BoundaryFace(0, "upper")

    @pytest.fixture(autouse=True)
    def fresh_caches(self):
        chart._node_set.cache_clear()
        yield
        chart._node_set.cache_clear()

    def builders(self):
        return [lambda: volume_nodes(self.DOM, self.RULE),
                lambda: face_nodes(self.DOM, self.FACE, self.RULE),
                lambda: uniform_grid(self.DOM, 4), lambda: uniform_grid(self.DOM, 5),
                lambda: face_grid(self.DOM, self.FACE, 4)]

    def test_public_builders_are_plain_functions(self):
        # the benchmark's tracer wraps only what inspect.isfunction accepts
        for build in (volume_nodes, face_nodes, uniform_grid, face_grid):
            assert inspect.isfunction(build)

    def test_node_sets_are_shared_and_read_only(self):
        for build in self.builders():
            first, again = build(), build()
            assert first is again
            for a in first if isinstance(first, tuple) else (first,):
                assert not a.flags.writeable
        assert uniform_grid(self.DOM, 4) is uniform_grid(self.DOM, samples=4)

    def test_a_field_that_writes_into_its_points_raises(self):
        def ev(X):
            X[..., 0] += 1.0
            return X[..., 0]

        with pytest.raises(ValueError, match="read-only"):
            integrate_volume(ScalarField(ev), self.DOM, self.RULE)
        with pytest.raises(ValueError, match="read-only"):
            sup_norm(ScalarField(ev), uniform_grid(self.DOM, 4))
        assert np.array_equal(volume_nodes(self.DOM, self.RULE)[0],
                              chart._volume_nodes(self.DOM, self.RULE)[0])

    @staticmethod
    def blocks_seen(f):
        """f as a field that records the array that owns the points of each
        call: the stencil block, of which f is handed a slice."""
        seen = []

        def ev(X):
            seen.append(X.base)
            return f(X)

        return ScalarField(ev), seen

    @staticmethod
    def builds_counted(monkeypatch):
        """The axis of every stencil built from here on, in order."""
        built = []
        new_stencil = chart._new_stencil
        monkeypatch.setattr(chart, "_new_stencil",
                            lambda *args: built.append(args[1]) or new_stencil(*args))
        return built

    def test_a_second_derivative_at_a_node_set_reuses_its_stencil(self, monkeypatch):
        built = self.builds_counted(monkeypatch)
        f, seen = self.blocks_seen(fields.random_polynomial(np.random.default_rng(30), 2, 3))
        grid = uniform_grid(self.DOM, 5)
        first = partial_derivative(f, 0, grid, self.DOM)
        again = partial_derivative(f, 0, grid, self.DOM)
        _, grads = jet([f, f], grid, self.DOM)
        # axis 0 once for all three calls, axis 1 once for the jet, whose
        # fields see one block of the points and both kept stencils
        assert built == [0, 1]
        assert seen[0] is seen[1] and seen[2] is seen[3] is not seen[0]
        stencil = seen[0].reshape(-1, 2)
        assert np.array_equal(seen[2][len(grid):len(grid) + len(stencil)], stencil)
        assert np.array_equal(first, again) and np.array_equal(grads[:, 1, 0], first)

    def test_an_equal_fresh_array_gets_its_own_equal_stencil(self):
        f, seen = self.blocks_seen(fields.random_polynomial(np.random.default_rng(31), 2, 3))
        grid = uniform_grid(self.DOM, 5)
        fresh = grid.copy()
        for axis in range(2):
            shared = partial_derivative(f, axis, grid, self.DOM)
            own = partial_derivative(f, axis, fresh, self.DOM)
            again = partial_derivative(f, axis, fresh, self.DOM)
            assert np.array_equal(shared, own) and np.array_equal(own, again)
            kept, block, rebuilt = seen[-3:]
            assert block is not kept and rebuilt is not block
            assert np.array_equal(block, kept) and np.array_equal(rebuilt, block)
        assert list(chart._kept[id(grid)]) == [(0, self.DOM, FDScheme()),
                                               (1, self.DOM, FDScheme())]
        assert id(fresh) not in chart._kept

    def test_nested_blocks_are_not_kept(self):
        f = fields.random_polynomial(np.random.default_rng(32), 2, 3)
        df = ScalarField(lambda X: partial_derivative(f, 1, X, self.DOM))
        grid = uniform_grid(self.DOM, 5)
        before = set(chart._kept)
        partial_derivative(df, 0, grid, self.DOM)
        assert set(chart._kept) == before
        assert list(chart._kept[id(grid)]) == [(0, self.DOM, FDScheme())]

    def test_stencils_are_freed_with_their_node_set(self):
        f = fields.random_polynomial(np.random.default_rng(33), 2, 3)
        grid = uniform_grid(self.DOM, 5)
        key, alive = id(grid), weakref.ref(grid)
        partial_derivative(f, 0, grid, self.DOM)
        chart._node_set.cache_clear()
        # a caller still holds the points, so their stencils stay
        assert list(chart._kept[key]) == [(0, self.DOM, FDScheme())]
        del grid
        assert alive() is None and key not in chart._kept
        assert chart._node_set.cache_info().maxsize == chart._NODE_SETS_KEPT

    def test_a_block_over_the_row_cap_is_never_kept(self, monkeypatch):
        built = self.builds_counted(monkeypatch)
        # 25 points: order * 25 = 100 rows on the periodic axis 1, and
        # (order + 1) * 25 = 125 on the boundary axis 0
        monkeypatch.setattr(chart, "_STENCIL_ROWS_KEPT", 100)
        f = fields.random_polynomial(np.random.default_rng(34), 2, 3)
        grid = uniform_grid(self.DOM, 5)
        for _ in range(2):
            for axis in range(2):
                partial_derivative(f, axis, grid, self.DOM)
        assert built == [0, 1, 0]
        assert list(chart._kept[id(grid)]) == [(1, self.DOM, FDScheme())]

    def test_a_held_node_set_keeps_its_stencils_after_the_cache_drops_it(self, monkeypatch):
        built = self.builds_counted(monkeypatch)
        f = fields.random_polynomial(np.random.default_rng(35), 2, 3)
        grid = uniform_grid(self.DOM, 5)
        first = partial_derivative(f, 0, grid, self.DOM)
        chart._node_set.cache_clear()
        again = partial_derivative(f, 0, grid, self.DOM)
        assert built == [0] and np.array_equal(first, again)
        # the cache builds the node set anew, and with it its stencils
        rebuilt = uniform_grid(self.DOM, 5)
        assert rebuilt is not grid
        partial_derivative(f, 0, rebuilt, self.DOM)
        assert built == [0, 0]


class TestSupNorm:
    GRID = uniform_grid(UNIT2, samples=4)

    def test_scalar_field(self):
        f = ScalarField(lambda X: X[..., 0] - 2.0 * X[..., 1])
        expected = max(abs(X[0] - 2.0 * X[1]) for X in self.GRID)
        assert sup_norm(f, self.GRID) == expected == 2.0

    def test_array_valued_field(self):
        def f(X):
            return np.stack([X[..., 0] * X[..., 1], -3.0 * X[..., 0],
                             np.full(X.shape[:-1], 0.5)], axis=-1)

        expected = max(abs(v) for X in self.GRID for v in f(X))
        assert sup_norm(f, self.GRID) == expected == 3.0
        # the same entries as a list of pieces, one per component
        assert sup_norm(lambda X: list(np.moveaxis(f(X), -1, 0)), self.GRID) == expected

    def test_empty_point_set_raises(self):
        for f in (fields.constant_field(1.0), lambda X: []):
            with pytest.raises(ValueError):
                sup_norm(f, np.empty((0, 2)))

    def test_nan_at_a_later_point_propagates(self):
        last = self.GRID[-1]
        f = ScalarField(lambda X: np.where(np.all(X == last, axis=-1), np.nan, 1.0))
        assert math.isnan(sup_norm(f, self.GRID))

    def test_nan_in_a_later_piece_propagates(self):
        f = fields.constant_field(np.nan)
        assert math.isnan(sup_norm(lambda X: [X[..., 0], f(X), X[..., 1]], self.GRID))

    def test_zero_pieces_give_zero(self):
        assert sup_norm(lambda X: [], self.GRID) == 0.0


class TestBatchedProtocol:
    """A field or derivative evaluated on a point set (N, d) equals the same
    evaluation row by row, bitwise where the arithmetic is the same."""

    @staticmethod
    def rowwise(f, axis, P_, dom, scheme=FDScheme()):
        return np.array([partial_derivative(f, axis, x, dom, scheme) for x in P_])

    def test_scalar_field_shapes(self):
        f = ScalarField(lambda X: X[..., 0] + X[..., 1])
        assert isinstance(f([0.25, 0.5]), float) and f([0.25, 0.5]) == 0.75
        out = f(np.array([[0.25, 0.5], [1.0, 2.0], [0.0, 0.0]]))
        assert out.shape == (3,) and list(out) == [0.75, 3.0, 0.0]

    def test_constant_result_broadcasts(self):
        f = ScalarField(lambda X: 2.5)
        assert f([0.1, 0.2]) == 2.5
        assert list(f(np.zeros((4, 2)))) == [2.5] * 4

    def test_wrong_shape_raises(self):
        # a one-point lambda indexing X[0] reads the first row of a point set
        f = ScalarField(lambda X: X[0] * (1 - X[0]))
        with pytest.raises(ValueError):
            f(uniform_grid(ChartDomain.unit(1), 5))

    @pytest.mark.parametrize("scheme", [FDScheme(1e-3, 4), FDScheme(2e-2, 2)])
    def test_boundary_axis_interior_and_one_sided_rows(self, scheme):
        # quadratic per axis, so both orders are exact up to roundoff
        coeffs = np.random.default_rng(5).uniform(-1, 1, (3, 3))
        f = fields.polynomial_field(coeffs)
        # rows at both faces, within stencil reach of them, and interior
        x0 = np.array([0.0, 1e-3, 2e-3, 0.5, 1 - 2e-3, 1 - 1e-3, 1.0, 0.02, 0.97])
        pts = np.stack([x0, np.linspace(0.0, 1.0, len(x0))], axis=-1)
        for axis in range(2):
            batch = partial_derivative(f, axis, pts, UNIT2, scheme)
            assert batch.shape == (len(pts),)
            assert np.array_equal(batch, self.rowwise(f, axis, pts, UNIT2, scheme))
            exact = fields.polynomial_field(P.polyder(coeffs, axis=axis))
            np.testing.assert_allclose(batch, exact(pts), rtol=0, atol=1e-9)

    def test_periodic_wrap(self):
        dom = ChartDomain.unit(2, periodic=[0])
        f = fields.sine_field([(0.7, (2, 1), 0.3), (-1.1, (1, -1), 1.0)])
        pts = np.array([[0.0, 0.5], [1e-4, 0.2], [0.5, 0.5], [0.9995, 0.0], [0.999, 1.0]])
        for axis in range(2):
            assert np.array_equal(partial_derivative(f, axis, pts, dom),
                                  self.rowwise(f, axis, pts, dom))

    def test_nested_finite_differences(self):
        f = fields.random_polynomial(np.random.default_rng(6), 2, 3)
        df = ScalarField(lambda X: partial_derivative(f, 1, X, UNIT2))
        pts = uniform_grid(UNIT2, 6)
        assert np.array_equal(partial_derivative(df, 0, pts, UNIT2),
                              self.rowwise(df, 0, pts, UNIT2))

    @staticmethod
    def counted(f):
        """f as a ScalarField that records the row count of each call."""
        rows = []

        def ev(X):
            rows.append(len(X))
            return f(X)

        return ScalarField(ev), rows

    @staticmethod
    def per_offset(f, axis, P_, dom, scheme=FDScheme()):
        """Reference derivative with one call of f per stencil offset of each
        shift group, summed in offset order with the group's weights."""
        h, r = scheme.step, scheme.order // 2
        lo, hi = dom.bounds[axis]
        periodic = dom.is_periodic(axis)
        shifts = np.zeros(len(P_), int) if periodic else _stencil_shifts(P_[:, axis], lo, hi, h, r)
        out = np.empty(len(P_))
        for shift in range(-r, r + 1):
            rows = shifts == shift
            if not rows.any():
                continue
            offsets = tuple(range(shift - r, shift + r + 1))
            total = 0
            for wj, o in zip(_fd_weights(offsets), offsets):
                X = P_[rows].copy()
                if periodic:
                    X[:, axis] = lo + (X[:, axis] + o * h - lo) % (hi - lo)
                else:
                    X[:, axis] = np.minimum(np.maximum(X[:, axis] + o * h, lo), hi)
                total = total + wj * f(X)
            out[rows] = total / h
        return out

    def test_one_call_on_a_periodic_axis(self):
        dom = ChartDomain.unit(2, periodic=[0])
        f = fields.sine_field([(0.7, (2, 1), 0.3), (-1.1, (1, -1), 1.0)])
        # rows within stencil reach of the seam, and rows a period or more away
        pts = np.array([[0.0, 0.5], [1e-4, 0.2], [0.5, 0.5], [0.9995, 0.0], [0.999, 1.0],
                        [-0.3, 0.1], [1.7, 0.4], [-2.0, 0.6]])
        seen = []
        counted, rows = self.counted(lambda X: seen.append(X.copy()) or f(X))
        got = partial_derivative(counted, 0, pts, dom)
        # order rows per point: the zero-weight centre offset is left out
        assert rows == [4 * len(pts)]
        assert np.array_equal(got, self.per_offset(f, 0, pts, dom))
        # so no row probes its own point, taken into [0, 1)
        probes = seen[0].reshape(4, len(pts), 2)[..., 0]
        assert not np.isclose(probes, pts[:, 0] % 1.0, rtol=0, atol=1e-9).any()

    @pytest.mark.parametrize("scheme", [FDScheme(1e-3, 4), FDScheme(2e-2, 2)])
    def test_one_call_across_shift_groups(self, scheme):
        f = fields.random_polynomial(np.random.default_rng(10), 2, 4)
        x0 = np.array([0.0, 1e-3, 2e-3, 0.5, 0.3, 1 - 2e-3, 1 - 1e-3, 1.0, 0.02, 0.97])
        pts = np.stack([x0, np.linspace(0.0, 1.0, len(x0))], axis=-1)
        r = scheme.order // 2
        assert len(set(_stencil_shifts(x0, 0.0, 1.0, scheme.step, r))) >= 3
        counted, rows = self.counted(f)
        got = partial_derivative(counted, 0, pts, UNIT2, scheme)
        assert rows == [(scheme.order + 1) * len(pts)]
        assert np.array_equal(got, self.per_offset(f, 0, pts, UNIT2, scheme))

    def test_one_call_at_a_single_point(self):
        f = fields.random_polynomial(np.random.default_rng(11), 2, 3)
        counted, rows = self.counted(f)
        got = partial_derivative(counted, 1, [0.3, 1.0], UNIT2)
        assert isinstance(got, float) and rows == [5]
        assert got == self.per_offset(f, 1, np.array([[0.3, 1.0]]), UNIT2)[0]

    def test_nested_derivative_calls_the_inner_field_once(self):
        f = fields.random_polynomial(np.random.default_rng(12), 2, 3)
        inner, inner_rows = self.counted(f)
        outer, outer_rows = self.counted(lambda X: partial_derivative(inner, 1, X, UNIT2))
        pts = uniform_grid(UNIT2, 6)
        got = partial_derivative(outer, 0, pts, UNIT2)
        assert outer_rows == [5 * len(pts)] and inner_rows == [25 * len(pts)]
        ref_inner = ScalarField(lambda X: self.per_offset(f, 1, X, UNIT2))
        assert np.array_equal(got, self.per_offset(ref_inner, 0, pts, UNIT2))

    def test_rows_beyond_the_limit_go_in_chunks(self, monkeypatch):
        monkeypatch.setattr(chart, "_FD_ROWS", 7)
        f = fields.random_polynomial(np.random.default_rng(15), 2, 3)
        inner, inner_rows = self.counted(f)
        outer, outer_rows = self.counted(lambda X: partial_derivative(inner, 1, X, UNIT2))
        pts = uniform_grid(UNIT2, 6)
        got = partial_derivative(outer, 0, pts, UNIT2)
        assert max(outer_rows + inner_rows) == 7
        assert sum(outer_rows) == 5 * len(pts) and sum(inner_rows) == 25 * len(pts)
        ref_inner = ScalarField(lambda X: self.per_offset(f, 1, X, UNIT2))
        assert np.array_equal(got, self.per_offset(ref_inner, 0, pts, UNIT2))

    @pytest.mark.parametrize("dom", [UNIT2, ChartDomain.unit(2, periodic=[0])])
    def test_empty_and_multi_axis_point_sets(self, dom):
        f = fields.random_polynomial(np.random.default_rng(13), 2, 3)
        assert partial_derivative(f, 0, np.empty((0, 2)), dom).shape == (0,)
        pts = np.random.default_rng(14).uniform(0, 1, (2, 3, 2))
        pts[0, 0, 0] = 0.0
        got = partial_derivative(f, 0, pts, dom)
        assert got.shape == (2, 3)
        assert np.array_equal(got.ravel(), partial_derivative(f, 0, pts.reshape(-1, 2), dom))

    def test_jet_block_shape(self):
        fs = [ScalarField(lambda X: X[..., 0]), fields.constant_field(1.0),
              ScalarField(lambda X: X[..., 0] * X[..., 1])]
        pts = uniform_grid(UNIT2, 4)
        values, block = jet(fs, pts, UNIT2)
        assert values.shape == (16, 3) and block.shape == (16, 3, 2)
        rowwise = [jet(fs, x, UNIT2) for x in pts]
        assert np.array_equal(values, np.array([v for v, _ in rowwise]))
        assert np.array_equal(block, np.array([g for _, g in rowwise]))

    def test_polynomial_field_matches_one_point_horner(self):
        rng = np.random.default_rng(8)
        coeffs = rng.uniform(-1, 1, (4, 3, 5))
        f = fields.polynomial_field(coeffs)
        pts = rng.uniform(0, 1, (50, 3))

        def horner(x):
            v = coeffs
            for xk in x:
                v = P.polyval(xk, v)
            return float(v)

        assert np.array_equal(f(pts), [horner(x) for x in pts])
        assert np.array_equal(f(pts), [f(x) for x in pts])

    def test_sine_and_bump_fields_match_per_point(self):
        rng = np.random.default_rng(9)
        pts = rng.uniform(0, 1, (60, 3))
        sine = fields.random_sine_field(rng, 3, n_modes=3)
        assert np.array_equal(sine(pts), [sine(x) for x in pts])
        bump = fields.poly_bump_field([(0.2, 0.8), (0.1, 0.9), (0.3, 0.7)], 1.3)
        batch = bump(pts)
        assert np.count_nonzero(batch) and np.count_nonzero(batch == 0.0)
        # a single point takes the bump's array path, so its power rounds alike
        assert np.array_equal(batch, [bump(x) for x in pts])

    def test_lattices_match_itertools_product(self):
        def product_nodes(axes):
            pts = [[axes[a][0][i] for a, i in enumerate(c)]
                   for c in itertools.product(*[range(len(x)) for x, _ in axes])]
            wts = [math.prod(axes[a][1][i] for a, i in enumerate(c))
                   for c in itertools.product(*[range(len(x)) for x, _ in axes])]
            return np.array(pts), np.array(wts)

        dom = ChartDomain.box([(0.0, 1.0), (-1.0, 2.0), (0.5, 0.75)], periodic=[1])
        rule = QuadratureRule(3, panels=2)
        axes = [rule.axis_nodes(lo, hi) for lo, hi in dom.bounds]
        for got, want in zip(volume_nodes(dom, rule), product_nodes(axes)):
            assert np.array_equal(got, want)
        face = BoundaryFace(2, "upper")
        face_axes = axes[:2] + [(np.array([0.75]), np.array([1.0]))]
        for got, want in zip(face_nodes(dom, face, rule), product_nodes(face_axes)):
            assert np.array_equal(got, want)
        lattice_axes = [np.linspace(0.0, 1.0, 4), np.linspace(-1.0, 2.0, 4, endpoint=False),
                        np.linspace(0.5, 0.75, 4)]
        assert np.array_equal(uniform_grid(dom, 4),
                              np.array(list(itertools.product(*lattice_axes))))
        lattice_axes[2] = np.array([0.75])
        assert np.array_equal(face_grid(dom, face, 4),
                              np.array(list(itertools.product(*lattice_axes))))
