import numpy as np
import pytest

from jetstress import fields
from jetstress.chart import BoundaryFace, ChartDomain, QuadratureRule, ScalarField
from jetstress.equilibrium import (
    equilibrium_residuals,
    force_from_stress,
    weak_strong_consistency,
)
from jetstress.forces import (
    BodyForceDensity,
    ForceFunctional,
    SurfaceForceDensity,
    equilibrated_force_residual,
    rotation_generator,
    translation_generators,
    virtual_power_of_force,
    zero_surface,
)
from jetstress.sections import Configuration, VelocityField
from jetstress.stress import (
    VariationalStressDensity,
    virtual_power_of_stress,
)

UNIT1 = ChartDomain.unit(1)
UNIT2 = ChartDomain.unit(2)


def poly_stress(rng, d, m):
    return VariationalStressDensity(
        tuple(fields.random_polynomial(rng, d, 3) for _ in range(m)),
        tuple(tuple(fields.random_polynomial(rng, d, 3) for _ in range(d))
              for _ in range(m)))


class TestForcePower:
    def test_zero_force(self):
        f = ForceFunctional(BodyForceDensity((fields.constant_field(0.0),)), zero_surface())
        v = VelocityField((ScalarField(lambda X: X[..., 0]),))
        assert virtual_power_of_force(f, v, UNIT1) == 0.0

    def test_body_only(self):
        # b = 1, v = X: power = 1/2
        f = ForceFunctional(BodyForceDensity((fields.constant_field(1.0),)))
        v = VelocityField((ScalarField(lambda X: X[..., 0]),))
        assert virtual_power_of_force(f, v, UNIT1) == pytest.approx(0.5, abs=1e-12)

    def test_surface_only(self):
        # unit traction on the upper end of the interval, unit velocity
        face = BoundaryFace(0, "upper")
        f = ForceFunctional(BodyForceDensity((fields.constant_field(0.0),)),
                            SurfaceForceDensity({face: (fields.constant_field(1.0),)}))
        v = VelocityField((fields.constant_field(1.0),))
        assert virtual_power_of_force(f, v, UNIT1) == pytest.approx(1.0, abs=1e-12)

    def test_linear_in_velocity(self):
        rng = np.random.default_rng(9)
        f = ForceFunctional(BodyForceDensity((fields.random_polynomial(rng, 1, 3),)))
        v = VelocityField((fields.random_polynomial(rng, 1, 3),))
        w = VelocityField((fields.random_polynomial(rng, 1, 3),))
        comb = VelocityField((ScalarField(
            lambda X: 2.0 * v.components[0](X) - 3.0 * w.components[0](X)),))
        lhs = virtual_power_of_force(f, comb, UNIT1)
        rhs = (2.0 * virtual_power_of_force(f, v, UNIT1)
               - 3.0 * virtual_power_of_force(f, w, UNIT1))
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestEquilibriumResiduals:
    def test_all_zero(self):
        s = VariationalStressDensity((fields.constant_field(0.0),),
                                     ((fields.constant_field(0.0),),))
        f = ForceFunctional(BodyForceDensity((fields.constant_field(0.0),)), zero_surface())
        interior, boundary = equilibrium_residuals(s, f, UNIT1)
        assert interior == 0.0
        assert boundary == 0.0

    def test_unbalanced_body_force(self):
        s = VariationalStressDensity((fields.constant_field(0.0),),
                                     ((fields.constant_field(0.0),),))
        f = ForceFunctional(BodyForceDensity((fields.constant_field(1.0),)))
        interior, _ = equilibrium_residuals(s, f, UNIT1)
        assert interior == pytest.approx(1.0, abs=1e-11)

    def test_manufactured_force_balances(self):
        rng = np.random.default_rng(31)
        s = poly_stress(rng, 2, 2)
        f = force_from_stress(s, UNIT2)
        interior, boundary = equilibrium_residuals(s, f, UNIT2, samples=9)
        assert interior <= 1e-6
        assert boundary <= 1e-6


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
        assert abs(virtual_power_of_stress(s, (v,), UNIT2, rule)[0]) <= 1e-8
        assert weak_strong_consistency(s, v, UNIT2, rule) <= 1e-8

    def test_force_representation_matches_stress_power(self):
        # f = force_from_stress(s) represents s: equal virtual power on any v
        rng = np.random.default_rng(12)
        s = poly_stress(rng, 2, 1)
        f = force_from_stress(s, UNIT2)
        for _ in range(3):
            v = VelocityField((fields.random_polynomial(rng, 2, 3),))
            pf = virtual_power_of_force(f, v, UNIT2)
            ps = virtual_power_of_stress(s, (v,), UNIT2)[0]
            assert abs(pf - ps) <= 1e-6


class TestEquilibratedForces:
    def test_zero_force_trivially_equilibrated(self):
        f = ForceFunctional(BodyForceDensity((fields.constant_field(0.0),) * 2), zero_surface())
        gens = translation_generators(UNIT2, 2)
        res = equilibrated_force_residual(f, gens, UNIT2)
        assert set(res) == {"translation_0", "translation_1"}
        assert all(r == 0.0 for r in res.values())

    def test_uniform_body_force_unbalanced(self):
        # b = (1, 0) on the unit square: the x-translation power is 1
        f = ForceFunctional(BodyForceDensity((fields.constant_field(1.0),
                                              fields.constant_field(0.0))))
        res = equilibrated_force_residual(f, translation_generators(UNIT2, 2), UNIT2)
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
        res = equilibrated_force_residual(f, translation_generators(UNIT2, 2), UNIT2)
        assert max(res.values()) <= 1e-8

    def test_rotation_generator_components(self):
        kappa = Configuration((ScalarField(lambda X: X[..., 0]), ScalarField(lambda X: X[..., 1])))
        g = rotation_generator(kappa, 0, 1)
        assert g.label == "rotation_01"
        v = g.velocity.value([0.3, 0.8])
        assert np.allclose(v, [-0.8, 0.3])
