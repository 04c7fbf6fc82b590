import gc
import itertools
import math

import numpy as np
import pytest

from jetstress import chart, fields, forms, scenarios
from jetstress.chart import (
    ChartDomain,
    FDScheme,
    QuadratureRule,
    ScalarField,
    partial_derivative,
    uniform_grid,
)
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
        t = np.linspace(0.1, 0.9, 4)  # interior points, off the boundary
        for X in np.array([(x, y) for x in t for y in t]):
            got = lhs.component((0, 1))(X)
            want = rhs1.component((0, 1))(X) - rhs2.component((0, 1))(X)
            assert got == pytest.approx(want, abs=1e-6)


class TestSharedMixedPartials:
    """d_a d_b f as a derivative component computes, bitwise, what the nested
    calls partial_derivative(lambda Y: partial_derivative(f, b, Y), a, X)
    compute, and d_a d_b and d_b d_a of one component call f once."""

    PERIODIC4 = ChartDomain.unit(4, periodic=range(4))
    SCHEME = FDScheme()

    @staticmethod
    def counted(f):
        rows = []

        def ev(X):
            rows.append(len(X))
            return f(X)

        return ScalarField(ev), rows

    def second(self, f, a, b, dom, scheme=SCHEME):
        """d_a d_b f as the one term of a component, and that term's sign."""
        d = dom.dim
        df = exterior_derivative(PForm(0, d, {(): f}), dom, scheme).component((b,))
        # a == b needs a form without the index a, which leaves only its complement
        I = tuple(i for i in range(d) if i != a) if a == b else (b,)
        outer = exterior_derivative(PForm(len(I), d, {I: df}), dom, scheme)
        return outer.component(tuple(sorted(I + (a,)))), shuffle_sign((a,), I)

    def nested(self, f, a, b, dom, X, s=SCHEME):
        return partial_derivative(lambda Y: partial_derivative(f, b, Y, dom, s), a, X, dom, s)

    @pytest.mark.parametrize("dom, samples", [(PERIODIC4, 3), (UNIT3, 5)])
    @pytest.mark.parametrize("fresh, rows", [(False, None), (True, None), (False, 100)])
    def test_each_path_equals_the_nested_calls(self, dom, samples, fresh, rows, monkeypatch):
        # on the unit box, the lattice of 5 has points on the faces, where
        # the stencils shift.  The lattice reads its kept stencils, a fresh
        # copy its own probe columns, and with 100 rows a walk takes 20
        # points at a time: a slice of the lattice's stencils, or the probe
        # columns of the slice's own points.
        if rows:
            monkeypatch.setattr(chart, "_FD_ROWS", rows)
        f = fields.random_sine_field(np.random.default_rng(40), dom.dim, n_modes=2)
        X = uniform_grid(dom, samples)
        X = X.copy() if fresh else X
        for a, b in itertools.product(range(dom.dim), repeat=2):
            comp, sign = self.second(f, a, b, dom)
            assert np.array_equal(comp(X), 0 + sign * self.nested(f, a, b, dom, X))

    def test_a_sliced_walk_builds_stencils_only_for_node_sets(self, monkeypatch):
        # 125 points at 20 a time: the points on the faces shift their
        # stencils, so each slice reads a slice of the lattice's
        # (order + 1, N) tables, and none builds a stencil of its own; nor
        # does a walk on a copy, which is no node set.  A step of its own
        # makes the lattice build its stencils here.
        monkeypatch.setattr(chart, "_FD_ROWS", 100)
        scheme = FDScheme(step=2e-3)
        f = fields.random_sine_field(np.random.default_rng(44), 3, n_modes=2)
        X = uniform_grid(UNIT3, 5)
        built = []
        new_stencil = chart._new_stencil
        monkeypatch.setattr(chart, "_new_stencil",
                            lambda P, *args: built.append(P) or new_stencil(P, *args))
        pairs = list(itertools.product(range(3), repeat=2))
        comps = [self.second(f, a, b, UNIT3, scheme) for a, b in pairs]
        got = [(comp(X), comp(X.copy())) for comp, _ in comps]
        assert len(built) == 3 and all(P is X for P in built)
        monkeypatch.setattr(chart, "_new_stencil", new_stencil)
        for (a, b), (_, sign), (values, copied) in zip(pairs, comps, got):
            want = 0 + sign * self.nested(f, a, b, UNIT3, X, scheme)
            assert np.array_equal(values, want) and np.array_equal(copied, want)

    def test_a_first_level_leaf_is_called_once_on_the_kept_block(self, monkeypatch):
        # every part weighs its slice of the values of one call on the
        # lattice's kept block, which no part rebuilds
        monkeypatch.setattr(chart, "_FD_ROWS", 100)
        seen = []
        g = fields.random_sine_field(np.random.default_rng(43), 3)
        f = ScalarField(lambda X: seen.append(X) or g(X))
        df = exterior_derivative(PForm(0, 3, {(): f}), UNIT3, self.SCHEME)
        grid = uniform_grid(UNIT3, 5)
        df.component((1,))(grid)
        built = []
        new_stencil = chart._new_stencil
        monkeypatch.setattr(chart, "_new_stencil",
                            lambda *args: built.append(args[1]) or new_stencil(*args))
        seen.clear()
        got = df.component((1,))(grid)
        assert built == []
        block = chart._kept[id(grid)][(1, UNIT3, self.SCHEME)][0]
        assert sum(map(len, seen)) == len(block)
        assert all(np.shares_memory(X, block) for X in seen)
        assert np.array_equal(got, 0 + partial_derivative(g, 1, grid, UNIT3, self.SCHEME))

    @pytest.mark.parametrize("fresh, cap", [(True, None), (False, 400), (False, 600)])
    def test_a_sliced_first_derivative_weighs_the_probes_it_evaluates(self, fresh, cap,
                                                                      monkeypatch):
        # 125 points, 20 at a time.  A copy is no node set, and with 400 rows
        # kept at most the lattice keeps no block: each part probes its own
        # points, and one whose points all lie off the faces of the axis has
        # no centre row.  With 600, order * 125 = 500 rows fit, so the call
        # builds each (order + 1) * 125-row block, which is not kept, and
        # every part slices it.
        monkeypatch.setattr(chart, "_FD_ROWS", 100)
        if cap:
            monkeypatch.setattr(chart, "_STENCIL_ROWS_KEPT", cap)
        chart._node_set.cache_clear()
        f = fields.random_sine_field(np.random.default_rng(45), 3)
        X = uniform_grid(UNIT3, 5)
        X = X.copy() if fresh else X
        df = exterior_derivative(PForm(0, 3, {(): f}), UNIT3, self.SCHEME)
        built = []
        new_stencil = chart._new_stencil
        monkeypatch.setattr(chart, "_new_stencil",
                            lambda P, *args: built.append(P) or new_stencil(P, *args))
        got = [df.component((a,))(X) for a in range(3)]
        assert len(built) == (3 if cap == 600 else 0) and all(P is X for P in built)
        for a in range(3):
            assert np.array_equal(got[a], 0 + partial_derivative(f, a, X, UNIT3, self.SCHEME))

    def test_a_derivative_on_another_scheme_is_a_leaf(self):
        inner, outer = FDScheme(order=2), self.SCHEME
        f = fields.random_sine_field(np.random.default_rng(42), 3)
        df = exterior_derivative(PForm(0, 3, {(): f}), UNIT3, inner).component((1,))
        got = exterior_derivative(PForm(1, 3, {(1,): df}), UNIT3, outer).component((0, 1))
        X = uniform_grid(UNIT3, 5)
        want = partial_derivative(lambda Y: partial_derivative(f, 1, Y, UNIT3, inner),
                                  0, X, UNIT3, outer)
        assert np.array_equal(got(X), 0 + want)

    @pytest.mark.parametrize("dom, samples", [(PERIODIC4, 3), (UNIT3, 5)])
    def test_both_orders_share_one_leaf_call(self, dom, samples):
        f, rows = self.counted(fields.random_sine_field(np.random.default_rng(41), dom.dim))
        ddf = exterior_derivative(exterior_derivative(PForm(0, dom.dim, {(): f}), dom), dom)
        X = uniform_grid(dom, samples)
        for a, b in itertools.combinations(range(dom.dim), 2):
            rows.clear()
            got = ddf.component((a, b))(X)
            assert len(rows) == 1
            # the terms in the order exterior_derivative lists them
            want = 0 - self.nested(f, b, a, dom, X) + self.nested(f, a, b, dom, X)
            assert np.array_equal(got, want)


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


class TestFormSupNorm:
    def test_nan_in_a_later_component_is_the_result(self):
        a = PForm(1, 2, {(0,): fields.constant_field(1.0), (1,): fields.constant_field(np.nan)})
        assert math.isnan(form_sup_norm(a, UNIT2, 3))


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

    def test_leaf_work_of_the_scenario(self, monkeypatch):
        # every leaf of the scenario's forms counts its rows: the plane-wave
        # potentials and the sine components of B.  Nested closures called
        # them 42 times on 4096 rows each, 172032 rows; one call per leaf and
        # unordered axis pair makes that 27 calls, 110592 rows.
        rows = []

        class Counted(ScalarField):
            def __call__(self, X):
                rows.append(len(X))
                return super().__call__(X)

        monkeypatch.setattr(scenarios, "ScalarField", Counted)
        monkeypatch.setattr(fields, "ScalarField", Counted)
        # the points of every stencil built: the lattice's, never an outer block
        built = []
        new_stencil = chart._new_stencil
        monkeypatch.setattr(chart, "_new_stencil",
                            lambda P, *args: built.append(len(P)) or new_stencil(P, *args))
        report = scenarios.run_scenario(scenarios.ScenarioConfig("maxwell_vacuum", samples=4))
        assert report.passed
        assert rows == [4096] * 27
        assert set(built) <= {len(uniform_grid(self.DOM, 4))}

    def test_a_sliced_run_builds_stencils_only_for_the_lattice(self, monkeypatch):
        # 256 points, 12 at a time with 64 rows; a step of its own makes the
        # lattice build its stencils here.  Slicing moves no check value.
        config = scenarios.ScenarioConfig("maxwell_vacuum", samples=4, fd_step=2e-3)
        want = [(c.name, c.value) for c in scenarios.run_scenario(config).checks]
        chart._node_set.cache_clear()
        monkeypatch.setattr(chart, "_FD_ROWS", 64)
        built = []
        new_stencil = chart._new_stencil
        monkeypatch.setattr(chart, "_new_stencil",
                            lambda P, *args: built.append(P) or new_stencil(P, *args))
        report = scenarios.run_scenario(config)
        grid = uniform_grid(self.DOM, 4)
        assert len(built) == 4 and all(P is grid for P in built)
        assert [(c.name, c.value) for c in report.checks] == want

    def test_a_run_keeps_no_nested_block(self):
        # only single-axis stencils of the probe lattice stay, freed with it
        chart._node_set.cache_clear()
        gc.collect()
        before = set(chart._kept)
        scenarios.run_scenario(scenarios.ScenarioConfig("maxwell_vacuum", samples=4))
        grid = uniform_grid(self.DOM, 4)
        assert set(chart._kept) - before == {id(grid)}
        kept = chart._kept[id(grid)]
        assert sorted(axis for axis, _, _ in kept) == [0, 1, 2, 3]
        assert all(block.shape == (4 * len(grid), 4) for block, _ in kept.values())
        key = id(grid)
        del grid, kept
        chart._node_set.cache_clear()
        assert key not in chart._kept

    def test_requires_periodic_4d(self):
        with pytest.raises(ValueError):
            maxwell_vacuum_check(zero_form(1, 4), minkowski(), ChartDomain.unit(4))
        with pytest.raises(ValueError):
            maxwell_vacuum_check(zero_form(2, 4), minkowski(), self.DOM)
