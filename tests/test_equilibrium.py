import math

import numpy as np
import pytest
from conftest import stress_power

from jetstress import fields
from jetstress.chart import BoundaryFace, ChartDomain, QuadratureRule, ScalarField, stokes_residual
from jetstress.equilibrium import (
    equilibrium_residuals,
    force_from_stress,
    weak_strong_consistency,
)
from jetstress.forces import (
    BodyForceDensity,
    ForceFunctional,
    equilibrated_force_residual,
    rotation_generator,
    translation_generators,
    virtual_power_of_force,
)
from jetstress.sections import Configuration, VelocityField
from jetstress.stress import VariationalStressDensity

UNIT1 = ChartDomain.unit(1)
UNIT2 = ChartDomain.unit(2)


def poly_stress(rng, d, m):
    return VariationalStressDensity(
        tuple(fields.random_polynomial(rng, d, 3) for _ in range(m)),
        tuple(tuple(fields.random_polynomial(rng, d, 3) for _ in range(d))
              for _ in range(m)))


class TestForcePower:
    def test_zero_force(self):
        f = ForceFunctional(BodyForceDensity((fields.constant_field(0.0),)), {})
        v = VelocityField((ScalarField(lambda X: X[..., 0]),))
        assert virtual_power_of_force(f, (v,), UNIT1)[0] == 0.0

    def test_body_only(self):
        # b = 1, v = X: power = 1/2
        f = ForceFunctional(BodyForceDensity((fields.constant_field(1.0),)))
        v = VelocityField((ScalarField(lambda X: X[..., 0]),))
        assert virtual_power_of_force(f, (v,), UNIT1)[0] == pytest.approx(0.5, abs=1e-12)

    def test_surface_only(self):
        # unit traction on the upper end of the interval, unit velocity
        face = BoundaryFace(0, "upper")
        f = ForceFunctional(BodyForceDensity((fields.constant_field(0.0),)),
                            {face: (fields.constant_field(1.0),)})
        v = VelocityField((fields.constant_field(1.0),))
        assert virtual_power_of_force(f, (v,), UNIT1)[0] == pytest.approx(1.0, abs=1e-12)

    def test_missing_face_carries_zero_traction(self):
        upper, lower = BoundaryFace(1, "upper"), BoundaryFace(1, "lower")
        f = ForceFunctional(BodyForceDensity((fields.constant_field(0.0),) * 2),
                            {upper: (fields.constant_field(1.0), fields.constant_field(2.0))})
        t = f.on_face(lower)
        assert len(t) == 2
        assert [ti(np.array([0.3, 0.0])) for ti in t] == [0.0, 0.0]
        assert f.on_face(upper) is f.surface[upper]

    @pytest.mark.parametrize("count", [1, 3])
    def test_face_needs_one_component_per_fiber_axis(self, count):
        # a short face tuple would broadcast over the velocity, or be zipped short
        body = BodyForceDensity((fields.constant_field(0.0),) * 2)
        surface = {BoundaryFace(0, "upper"): (fields.constant_field(1.0),) * count}
        with pytest.raises(ValueError, match="traction components"):
            ForceFunctional(body, surface)

    @pytest.mark.parametrize("count", [1, 3])
    def test_velocity_needs_one_component_per_force_axis(self, count):
        # a force with fewer components than the velocity would broadcast over it
        f = ForceFunctional(BodyForceDensity((fields.constant_field(1.0),) * count))
        v = VelocityField((fields.constant_field(1.0),) * 2)
        with pytest.raises(ValueError, match="the velocity 2"):
            virtual_power_of_force(f, (v,), UNIT1)

    def test_linear_in_velocity(self):
        rng = np.random.default_rng(9)
        f = ForceFunctional(BodyForceDensity((fields.random_polynomial(rng, 1, 3),)))
        v = VelocityField((fields.random_polynomial(rng, 1, 3),))
        w = VelocityField((fields.random_polynomial(rng, 1, 3),))
        comb = VelocityField((ScalarField(
            lambda X: 2.0 * v.components[0](X) - 3.0 * w.components[0](X)),))
        lhs = virtual_power_of_force(f, (comb,), UNIT1)[0]
        pv, pw = virtual_power_of_force(f, (v, w), UNIT1)
        rhs = 2.0 * pv - 3.0 * pw
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestStackedForcePower:
    def test_each_row_is_the_lone_velocity_power(self):
        rng = np.random.default_rng(23)
        face = BoundaryFace(0, "upper")
        f = ForceFunctional(
            BodyForceDensity(tuple(fields.random_polynomial(rng, 2, 3) for _ in range(2))),
            {face: tuple(fields.random_polynomial(rng, 2, 3) for _ in range(2))})
        vs = [VelocityField(tuple(fields.random_polynomial(rng, 2, 3) for _ in range(2)))
              for _ in range(3)]
        stacked = virtual_power_of_force(f, vs, UNIT2)
        assert stacked.shape == (3,)
        assert stacked.tolist() == [virtual_power_of_force(f, (v,), UNIT2)[0] for v in vs]

    def test_each_body_component_is_evaluated_once_for_all_generators(self):
        rows = []

        def counted(c: float) -> ScalarField:
            def call(X):
                rows.append(len(X))
                return np.full(len(X), c)
            return ScalarField(call)

        f = ForceFunctional(BodyForceDensity(tuple(counted(c) for c in (1.0, 2.0, 3.0))))
        res = equilibrated_force_residual(f, translation_generators(3), UNIT2, QuadratureRule(4))
        assert rows == [16] * 3
        assert res == pytest.approx({"translation_0": 1.0, "translation_1": 2.0,
                                     "translation_2": 3.0}, abs=1e-12)

    def test_no_velocities_raise(self):
        f = ForceFunctional(BodyForceDensity((fields.constant_field(1.0),)))
        with pytest.raises(ValueError, match="no velocity fields"):
            virtual_power_of_force(f, (), UNIT1)
        with pytest.raises(ValueError, match="no velocity fields"):
            equilibrated_force_residual(f, {}, UNIT1)


class TestEquilibriumResiduals:
    def test_all_zero(self):
        s = VariationalStressDensity((fields.constant_field(0.0),),
                                     ((fields.constant_field(0.0),),))
        f = ForceFunctional(BodyForceDensity((fields.constant_field(0.0),)), {})
        interior, boundary = equilibrium_residuals(s, f, UNIT1)
        assert interior == 0.0
        assert boundary == 0.0

    def test_unbalanced_body_force(self):
        s = VariationalStressDensity((fields.constant_field(0.0),),
                                     ((fields.constant_field(0.0),),))
        f = ForceFunctional(BodyForceDensity((fields.constant_field(1.0),)))
        interior, _ = equilibrium_residuals(s, f, UNIT1)
        assert interior == pytest.approx(1.0, abs=1e-11)

    @pytest.mark.parametrize("count", [1, 3])
    def test_force_needs_one_component_per_stress_axis(self, count):
        zero = fields.constant_field(0.0)
        s = VariationalStressDensity((zero,) * 2, ((zero,),) * 2)
        f = ForceFunctional(BodyForceDensity((fields.constant_field(1.0),) * count))
        with pytest.raises(ValueError, match="the stress 2"):
            equilibrium_residuals(s, f, UNIT1)

    def test_nan_traction_on_a_later_face_is_the_result(self):
        zero = fields.constant_field(0.0)
        s = VariationalStressDensity((zero,), ((zero,),))
        upper = BoundaryFace(0, "upper")
        assert list(UNIT1.faces())[-1] == upper
        f = ForceFunctional(BodyForceDensity((zero,)),
                            {upper: (fields.constant_field(np.nan),)})
        interior, boundary = equilibrium_residuals(s, f, UNIT1)
        assert interior == 0.0
        assert math.isnan(boundary)

    def test_all_periodic_box_has_no_boundary_residual(self):
        # the stress has a traction, but no face to carry it
        zero, one = fields.constant_field(0.0), fields.constant_field(1.0)
        s = VariationalStressDensity((zero,), ((one, one),))
        f = ForceFunctional(BodyForceDensity((zero,)))
        torus = ChartDomain.unit(2, periodic=range(2))
        interior, boundary = equilibrium_residuals(s, f, torus, samples=5)
        assert boundary == 0.0
        assert interior <= 1e-12

    def test_manufactured_force_balances(self):
        rng = np.random.default_rng(31)
        s = poly_stress(rng, 2, 2)
        f = force_from_stress(s, UNIT2)
        # a force is in equilibrium with the stress that represents it, bit for bit
        assert equilibrium_residuals(s, f, UNIT2, samples=9) == (0.0, 0.0)


class TestWeakStrong:
    def test_zero_stress(self):
        s = VariationalStressDensity((fields.constant_field(0.0),),
                                     ((fields.constant_field(0.0),),))
        v = VelocityField((ScalarField(lambda X: X[..., 0]),))
        assert weak_strong_consistency(s, v, UNIT1) == 0.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_polynomial_data(self, seed):
        rng = np.random.default_rng(seed)
        s = poly_stress(rng, 2, 2)
        v = VelocityField(tuple(fields.random_polynomial(rng, 2, 3) for _ in range(2)))
        assert weak_strong_consistency(s, v, UNIT2) <= 1e-6

    def test_interior_supported_traction_kills_both_sides(self):
        # compactly supported mixed block: the boundary term drops and the two
        # volume terms agree by parts
        from jetstress.stress import exterior_jet, TractionStressDensity

        rule = QuadratureRule(8, panels=4)
        tau = TractionStressDensity(
            ((fields.poly_bump_field([(0.25, 0.75)] * 2, 0.9),
              fields.poly_bump_field([(0.25, 0.75)] * 2, -0.4)),))
        s = exterior_jet(tau, UNIT2)
        rng = np.random.default_rng(6)
        v = VelocityField((fields.random_polynomial(rng, 2, 3),))
        assert abs(stress_power(s, (v,), UNIT2, rule)[0]) <= 1e-8
        assert weak_strong_consistency(s, v, UNIT2, rule) <= 1e-8

    def test_force_representation_matches_stress_power(self):
        # f = force_from_stress(s) represents s: equal virtual power on any v
        rng = np.random.default_rng(12)
        s = poly_stress(rng, 2, 1)
        f = force_from_stress(s, UNIT2)
        for _ in range(3):
            v = VelocityField((fields.random_polynomial(rng, 2, 3),))
            pf = virtual_power_of_force(f, (v,), UNIT2)[0]
            ps = stress_power(s, (v,), UNIT2)[0]
            assert abs(pf - ps) <= 1e-6


class TestEquilibratedForces:
    def test_zero_force_trivially_equilibrated(self):
        f = ForceFunctional(BodyForceDensity((fields.constant_field(0.0),) * 2), {})
        gens = translation_generators(2)
        res = equilibrated_force_residual(f, gens, UNIT2)
        assert set(res) == {"translation_0", "translation_1"}
        assert all(r == 0.0 for r in res.values())

    def test_uniform_body_force_unbalanced(self):
        # b = (1, 0) on the unit square: the x-translation power is 1
        f = ForceFunctional(BodyForceDensity((fields.constant_field(1.0),
                                              fields.constant_field(0.0))))
        res = equilibrated_force_residual(f, translation_generators(2), UNIT2)
        assert res["translation_0"] == pytest.approx(1.0, abs=1e-12)
        assert res["translation_1"] == 0.0

    def test_stress_with_zero_lower_block_is_equilibrated(self):
        # translations prolong to zero gradient, so only s_lower could
        # contribute; with s_lower = 0 the represented force is equilibrated
        rng = np.random.default_rng(14)
        s = VariationalStressDensity(
            (fields.constant_field(0.0),) * 2,
            tuple(tuple(fields.random_polynomial(rng, 2, 3) for _ in range(2))
                  for _ in range(2)))
        f = force_from_stress(s, UNIT2)
        res = equilibrated_force_residual(f, translation_generators(2), UNIT2)
        assert max(res.values()) <= 1e-8

    def test_merged_translation_and_rotation_set(self):
        kappa = Configuration((ScalarField(lambda X: X[..., 0]), ScalarField(lambda X: X[..., 1])))
        gens = {**translation_generators(2), **rotation_generator(kappa, 0, 1)}
        f = ForceFunctional(BodyForceDensity((fields.constant_field(0.0),) * 2))
        res = equilibrated_force_residual(f, gens, UNIT2)
        assert res == {"translation_0": 0.0, "translation_1": 0.0, "rotation_01": 0.0}

    def test_rotation_generator_components(self):
        kappa = Configuration((ScalarField(lambda X: X[..., 0]), ScalarField(lambda X: X[..., 1])))
        (label, g), = rotation_generator(kappa, 0, 1).items()
        assert label == "rotation_01"
        v = g.value([0.3, 0.8])
        assert np.allclose(v, [-0.8, 0.3])


class TestChartChange:
    """The paper's objects do not depend on the chart.  A change of base
    chart X(Y) from the unit box, with per-axis Jacobian J_a = dY_a/dX_a,
    carries a field f to f(Y(X)) and a density (a stress or a (d-1)-form
    component along axis a) to |det J| / J_a times it, with J_a = 1 for the
    value part of a stress.  Every residual and virtual power is then the
    same in exact arithmetic, and agrees to 1e-12 in floating point.

    Reflecting an axis, X_a -> lo + hi - X_a, swaps its lower and upper
    faces, whose orientation signs only global Stokes fixes
    (`BoundaryFace.induced_sign`); the other chart maps the unit box onto a
    box with non-unit bounds, which no scenario reaches."""

    BOUNDS = np.array([(-1.0, 2.0), (0.5, 1.25), (2.0, 2.5)])

    def chart_change(self, kind, d):
        """(domain, Y(X), J) of the chart change."""
        if kind == "box":
            lo, hi = self.BOUNDS[:d, 0], self.BOUNDS[:d, 1]
            return ChartDomain.box(self.BOUNDS[:d]), lambda X: (X - lo) / (hi - lo), 1.0 / (hi - lo)
        axis = d - 1  # the unit box reflected along its last axis
        J = np.where(np.arange(d) == axis, -1.0, 1.0)
        return ChartDomain.unit(d), lambda X: np.where(J < 0, 1.0 - X, X), J

    @staticmethod
    def moved(f, Y, c=1.0):
        return ScalarField(lambda X: c * f(Y(X)))

    def moved_stress(self, s, Y, J):
        det = abs(np.prod(J))
        return VariationalStressDensity(
            tuple(self.moved(g, Y, det) for g in s.s_lower),
            tuple(tuple(self.moved(g, Y, det / J[a]) for a, g in enumerate(row))
                  for row in s.s_mixed))

    @pytest.mark.parametrize("kind", ["reflect", "box"])
    @pytest.mark.parametrize("d", [2, 3])
    def test_stokes_residual(self, kind, d):
        dom, Y, J = self.chart_change(kind, d)
        omega = [fields.random_polynomial(np.random.default_rng(60 + d), d, 3) for _ in range(d)]
        det = abs(np.prod(J))
        moved = [self.moved(w, Y, det / J[a]) for a, w in enumerate(omega)]
        assert stokes_residual(moved, dom) == pytest.approx(
            stokes_residual(omega, ChartDomain.unit(d)), abs=1e-12)

    @pytest.mark.parametrize("kind", ["reflect", "box"])
    @pytest.mark.parametrize("d, m", [(2, 2), (3, 1)])
    def test_weak_strong_and_virtual_power(self, kind, d, m):
        dom, Y, J = self.chart_change(kind, d)
        unit = ChartDomain.unit(d)
        rng = np.random.default_rng(70 + d)
        s = poly_stress(rng, d, m)
        vs = [VelocityField(tuple(fields.random_polynomial(rng, d, 3) for _ in range(m)))
              for _ in range(3)]
        s2 = self.moved_stress(s, Y, J)
        vs2 = [VelocityField(tuple(self.moved(c, Y) for c in v.components)) for v in vs]
        power = stress_power(s, vs, unit)
        assert np.max(np.abs(power)) > 0.1
        np.testing.assert_allclose(stress_power(s2, vs2, dom),
                                   power, rtol=0, atol=1e-12)
        for v, v2 in zip(vs, vs2):
            assert weak_strong_consistency(s2, v2, dom) == pytest.approx(
                weak_strong_consistency(s, v, unit), abs=1e-12)
