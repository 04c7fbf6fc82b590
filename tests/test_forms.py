import itertools
import math

import numpy as np
import pytest

from jetstress import fields
from jetstress.chart import ChartDomain, FDScheme, QuadratureRule, ScalarField, uniform_grid
from jetstress.forms import (
    FlatMetric,
    PForm,
    exterior_derivative,
    form_sup_norm,
    hodge_star,
    maxwell_vacuum_check,
    minkowski,
    pform_virtual_power,
    shuffle_sign,
    wedge,
    zero_form,
)

UNIT1 = ChartDomain.unit(1)
UNIT2 = ChartDomain.unit(2)
UNIT3 = ChartDomain.unit(3)


def random_pform(rng, degree, dim, deg=2):
    comps = {idx: fields.random_polynomial(rng, dim, deg)
             for idx in itertools.combinations(range(dim), degree)}
    return PForm(degree, dim, comps)


class TestShuffleSign:
    def test_repeated_index_vanishes(self):
        assert shuffle_sign((0, 1), (1, 2)) == 0

    def test_matches_permutation_parity(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            seq = list(rng.permutation(n))
            cut = int(rng.integers(0, n + 1))
            I, J = tuple(seq[:cut]), tuple(seq[cut:])
            # oracle: parity by explicit adjacent transposition sort
            work = list(seq)
            swaps = 0
            for a in range(len(work)):
                for b in range(len(work) - 1 - a):
                    if work[b] > work[b + 1]:
                        work[b], work[b + 1] = work[b + 1], work[b]
                        swaps += 1
            assert shuffle_sign(I, J) == (-1 if swaps % 2 else 1)


class TestPForm:
    def test_bad_degree_rejected(self):
        with pytest.raises(ValueError):
            PForm(3, 2, {})

    def test_unsorted_index_rejected(self):
        with pytest.raises(ValueError):
            PForm(2, 3, {(1, 0): fields.constant_field(1.0)})

    def test_missing_component_is_zero(self):
        a = zero_form(1, 3)
        assert a.component((2,))([0.1, 0.2, 0.3]) == 0.0


class TestWedge:
    def test_basis_antisymmetry(self):
        dx0 = PForm(1, 2, {(0,): fields.constant_field(1.0)})
        dx1 = PForm(1, 2, {(1,): fields.constant_field(1.0)})
        X = [0.3, 0.7]
        assert wedge(dx0, dx1).component((0, 1))(X) == 1.0
        assert wedge(dx1, dx0).component((0, 1))(X) == -1.0
        assert wedge(dx0, dx0).components == {}

    def test_sum_difference_product(self):
        # (dX0 + dX1) ^ (dX0 - dX1) = -2 dX0 ^ dX1
        one = fields.constant_field(1.0)
        minus = fields.constant_field(-1.0)
        a = PForm(1, 2, {(0,): one, (1,): one})
        b = PForm(1, 2, {(0,): one, (1,): minus})
        assert wedge(a, b).component((0, 1))([0.2, 0.9]) == pytest.approx(-2.0)

    def test_zero_form_scales(self):
        f = PForm(0, 2, {(): fields.constant_field(3.0)})
        a = PForm(1, 2, {(0,): ScalarField(lambda X: X[..., 1])})
        assert wedge(f, a).component((0,))([0.2, 0.5]) == pytest.approx(1.5)

    def test_graded_anticommutativity(self):
        rng = np.random.default_rng(5)
        for p, q in [(1, 1), (1, 2), (2, 1)]:
            a = random_pform(rng, p, 3)
            b = random_pform(rng, q, 3)
            ab = wedge(a, b)
            ba = wedge(b, a)
            sign = (-1.0) ** (p * q)
            for X in uniform_grid(UNIT3, 3):
                for idx in ab.indices():
                    assert ab.component(idx)(X) == pytest.approx(
                        sign * ba.component(idx)(X), abs=1e-12)

    def test_degree_overflow_rejected(self):
        a = random_pform(np.random.default_rng(0), 2, 3)
        b = random_pform(np.random.default_rng(1), 2, 3)
        with pytest.raises(ValueError):
            wedge(a, b)


class TestExteriorDerivative:
    def test_constant_function(self):
        da = exterior_derivative(PForm(0, 2, {(): fields.constant_field(2.0)}), UNIT2)
        assert form_sup_norm(da, UNIT2, 5) <= 1e-11

    def test_coordinate_one_form(self):
        # d(X0 dX1) = dX0 ^ dX1
        a = PForm(1, 2, {(1,): ScalarField(lambda X: X[..., 0])})
        da = exterior_derivative(a, UNIT2)
        assert da.component((0, 1))([0.4, 0.6]) == pytest.approx(1.0, abs=1e-9)

    def test_gradient_of_function(self):
        f = ScalarField(lambda X: X[..., 0] * X[..., 1])
        da = exterior_derivative(PForm(0, 2, {(): f}), UNIT2)
        assert da.component((0,))([0.4, 0.6]) == pytest.approx(0.6, abs=1e-9)
        assert da.component((1,))([0.4, 0.6]) == pytest.approx(0.4, abs=1e-9)

    def test_top_degree_maps_to_zero(self):
        a = random_pform(np.random.default_rng(2), 2, 2)
        assert exterior_derivative(a, UNIT2).components == {}

    @pytest.mark.parametrize("degree", [0, 1])
    def test_dd_vanishes(self, degree):
        rng = np.random.default_rng(degree)
        a = random_pform(rng, degree, 3, deg=3)
        dda = exterior_derivative(exterior_derivative(a, UNIT3), UNIT3)
        assert form_sup_norm(dda, UNIT3, 4) <= 1e-6

    def test_leibniz_rule(self):
        # d(a ^ b) = da ^ b + (-1)^p a ^ db for a 1-form against a 0-form
        rng = np.random.default_rng(9)
        a = random_pform(rng, 1, 2, deg=3)
        b = random_pform(rng, 0, 2, deg=3)
        lhs = exterior_derivative(wedge(a, b), UNIT2)
        rhs1 = wedge(exterior_derivative(a, UNIT2), b)
        rhs2 = wedge(a, exterior_derivative(b, UNIT2))
        for X in uniform_grid(UNIT2, 4, margin=0.1):
            got = lhs.component((0, 1))(X)
            want = rhs1.component((0, 1))(X) - rhs2.component((0, 1))(X)
            assert got == pytest.approx(want, abs=1e-6)


class TestHodgeStar:
    def test_euclidean_plane(self):
        dx0 = PForm(1, 2, {(0,): fields.constant_field(1.0)})
        dx1 = PForm(1, 2, {(1,): fields.constant_field(1.0)})
        X = [0.5, 0.5]
        assert hodge_star(dx0, FlatMetric((1, 1))).component((1,))(X) == 1.0
        assert hodge_star(dx1, FlatMetric((1, 1))).component((0,))(X) == -1.0

    def test_star_of_one_is_volume(self):
        vol = hodge_star(PForm(0, 3, {(): fields.constant_field(1.0)}), FlatMetric((1, 1, 1)))
        assert vol.degree == 3
        assert vol.component((0, 1, 2))([0.1, 0.2, 0.3]) == 1.0

    def test_minkowski_timelike_factor(self):
        # *(dX0) picks up the -1 metric inverse on the timelike axis
        dx0 = PForm(1, 4, {(0,): fields.constant_field(1.0)})
        star = hodge_star(dx0, minkowski())
        assert star.component((1, 2, 3))([0.0] * 4) == -1.0

    @pytest.mark.parametrize("metric",
                             [FlatMetric((1, 1, 1)), FlatMetric((1, 1, 1, 1)), minkowski()])
    def test_double_star_identity(self, metric):
        rng = np.random.default_rng(metric.dim)
        d = metric.dim
        for p in range(d + 1):
            a = random_pform(rng, p, d, deg=1)
            aa = hodge_star(hodge_star(a, metric), metric)
            factor = metric.det_sign * (-1.0) ** (p * (d - p))
            X = rng.uniform(0, 1, d)
            for idx in a.indices():
                assert aa.component(idx)(X) == pytest.approx(
                    factor * a.component(idx)(X), abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            hodge_star(random_pform(np.random.default_rng(0), 1, 3), FlatMetric((1, 1)))


class TestPFormPower:
    def test_zero_everything(self):
        g = zero_form(0, 1)
        v = zero_form(0, 1)
        assert pform_virtual_power(g, v, None, UNIT1) == 0.0

    def test_boundary_flux_on_interval(self):
        # g = X, v = 1 on [0,1]: power reduces to the boundary flux g(1) - g(0)
        g = PForm(0, 1, {(): ScalarField(lambda X: X[..., 0])})
        v = PForm(0, 1, {(): fields.constant_field(1.0)})
        assert pform_virtual_power(g, v, None, UNIT1) == pytest.approx(1.0, abs=1e-10)

    def test_source_term_mass(self):
        g = zero_form(0, 1)
        v = zero_form(0, 1)
        b = PForm(1, 1, {(0,): fields.constant_field(1.0)})
        assert pform_virtual_power(g, v, b, UNIT1) == pytest.approx(1.0, abs=1e-12)

    def test_degree_mismatch_rejected(self):
        g = zero_form(1, 3)  # needs degree d-p-1 = 1 for p = 1, so this passes
        v = zero_form(1, 3)
        b = zero_form(1, 3)  # wrong: source must be top degree
        with pytest.raises(ValueError):
            pform_virtual_power(g, v, b, UNIT3)
        with pytest.raises(ValueError):
            pform_virtual_power(zero_form(0, 3), v, None, UNIT3)

    def test_periodic_box_no_net_power(self):
        # with no source, the power is a pure boundary term and a fully
        # periodic box has no boundary
        dom = ChartDomain.unit(3, periodic=[0, 1, 2])
        rng = np.random.default_rng(6)
        g = PForm(1, 3, {(i,): fields.random_sine_field(rng, 3, 1, 1) for i in range(3)})
        v = PForm(1, 3, {(i,): fields.random_sine_field(rng, 3, 1, 1) for i in range(3)})
        assert abs(pform_virtual_power(g, v, None, dom, QuadratureRule(10))) <= 1e-6

    def test_linear_in_velocity(self):
        rng = np.random.default_rng(8)
        g = random_pform(rng, 1, 3, deg=2)
        v1 = random_pform(rng, 1, 3, deg=2)
        v2 = PForm(1, 3, {idx: fields.scaled(f, 2.0) for idx, f in v1.components.items()})
        p1 = pform_virtual_power(g, v1, None, UNIT3, QuadratureRule(4))
        p2 = pform_virtual_power(g, v2, None, UNIT3, QuadratureRule(4))
        assert p2 == pytest.approx(2 * p1, rel=1e-10)


class TestMaxwell:
    DOM = ChartDomain.unit(4, periodic=[0, 1, 2, 3])

    @staticmethod
    def plane_wave(k, axis=2):
        k = 2 * math.pi * np.asarray(k, dtype=float)
        comp = ScalarField(lambda X: np.cos(X @ k))
        return PForm(1, 4, {(axis,): comp})

    def test_zero_potential(self):
        dF, J = maxwell_vacuum_check(zero_form(1, 4), minkowski(), self.DOM, samples=2)
        assert dF == 0.0
        assert J == 0.0

    def test_null_wave_is_vacuum_solution(self):
        A = self.plane_wave([1, 1, 0, 0])
        dF, J = maxwell_vacuum_check(A, minkowski(), self.DOM, samples=3)
        assert dF <= 1e-6
        assert J <= 1e-6

    def test_non_null_wave_has_source(self):
        A = self.plane_wave([1, 0, 0, 0])
        _, J = maxwell_vacuum_check(A, minkowski(), self.DOM, samples=3)
        assert J >= 0.1

    def test_requires_periodic_4d(self):
        with pytest.raises(ValueError):
            maxwell_vacuum_check(zero_form(1, 4), minkowski(), ChartDomain.unit(4))
        with pytest.raises(ValueError):
            maxwell_vacuum_check(zero_form(2, 4), minkowski(), self.DOM)
