import math

import numpy as np
import pytest

from jetstress import fields, scenarios
from jetstress.chart import (
    BoundaryFace,
    ChartDomain,
    QuadratureRule,
    ScalarField,
    uniform_grid,
)
from jetstress.material import (
    ConstitutiveDensity,
    LagrangianDensity,
    PotentialDensities,
    bvp_residual,
    constitutive_from_lagrangian,
    energy_variation_residual,
    loading_from_potential,
    pullback_constitutive,
    pullback_loading,
    total_energy,
)
from jetstress.sections import Configuration, JetPoint, VelocityField

UNIT1 = ChartDomain.unit(1)
UNIT2 = ChartDomain.unit(2)


def jet_points(rng, d, m, count):
    for _ in range(count):
        yield JetPoint(rng.uniform(0, 1, d), rng.uniform(-2, 2, m),
                       rng.uniform(-2, 2, (m, d)))


class TestPullback:
    def test_base_only_components(self):
        psi = ConstitutiveDensity((lambda jp: float(jp.X[0]),),
                                  (((lambda jp: 2.0),),))
        kappa = Configuration((fields.constant_field(0.0),))
        s = pullback_constitutive(psi, kappa, UNIT1)
        assert s.s_lower[0]([0.3]) == pytest.approx(0.3)
        assert s.s_mixed[0][0]([0.3]) == 2.0

    def test_gradient_dependent_component(self):
        # psi^1 = x', kappa = X^2: pullback gives 2X
        psi = ConstitutiveDensity(((lambda jp: 0.0),),
                                  (((lambda jp: float(jp.xprime[0, 0])),),))
        kappa = Configuration((ScalarField(lambda X: X[..., 0] ** 2),))
        s = pullback_constitutive(psi, kappa, UNIT1)
        assert s.s_mixed[0][0]([0.4]) == pytest.approx(0.8, abs=1e-8)

    def test_linear_in_constitutive_components(self):
        rng = np.random.default_rng(3)
        kappa = Configuration((fields.random_polynomial(rng, 1, 3),))

        def pl(jp):
            return float(jp.x[0] * jp.xprime[0, 0])

        psi1 = ConstitutiveDensity((pl,), (((lambda jp: float(jp.x[0])),),))
        psi2 = ConstitutiveDensity(
            ((lambda jp: 2.0 * pl(jp)),),
            (((lambda jp: 2.0 * float(jp.x[0])),),))
        s1 = pullback_constitutive(psi1, kappa, UNIT1)
        s2 = pullback_constitutive(psi2, kappa, UNIT1)
        for X in np.linspace(0.1, 0.9, 5):
            assert s2.s_lower[0]([X]) == pytest.approx(2 * s1.s_lower[0]([X]), rel=1e-12)
            assert s2.s_mixed[0][0]([X]) == pytest.approx(2 * s1.s_mixed[0][0]([X]), rel=1e-12)


class TestLagrangianGradient:
    def test_quadratic_lagrangian(self):
        # L = (1/2)(x')^2: psi = 0, psi^1 = x'
        L = LagrangianDensity(lambda jp: 0.5 * float(jp.xprime[0, 0]) ** 2)
        psi = constitutive_from_lagrangian(L, 1, 1)
        jp = JetPoint(np.array([0.5]), np.array([0.7]), np.array([[1.3]]))
        assert psi.psi_lower[0](jp) == pytest.approx(0.0, abs=1e-9)
        assert psi.psi_mixed[0][0](jp) == pytest.approx(1.3, abs=1e-8)

    def test_constant_lagrangian(self):
        L = LagrangianDensity(lambda jp: 4.0)
        psi = constitutive_from_lagrangian(L, 1, 2)
        jp = JetPoint(np.array([0.5, 0.5]), np.array([0.7]), np.array([[1.0, -1.0]]))
        assert psi.psi_lower[0](jp) == 0.0
        assert all(psi.psi_mixed[0][a](jp) == 0.0 for a in range(2))

    def test_quartic_lagrangian_analytic_gradient(self):
        # L = (1/4)(x')^4 + x^2: psi = 2x, psi^1 = (x')^3
        L = LagrangianDensity(lambda jp: 0.25 * float(jp.xprime[0, 0]) ** 4
                              + float(jp.x[0]) ** 2)
        psi = constitutive_from_lagrangian(L, 1, 1)
        rng = np.random.default_rng(42)
        for jp in jet_points(rng, 1, 1, 100):
            assert psi.psi_lower[0](jp) == pytest.approx(2 * jp.x[0], abs=1e-6)
            assert psi.psi_mixed[0][0](jp) == pytest.approx(jp.xprime[0, 0] ** 3, abs=1e-6)


class TestLoadingFromPotential:
    def test_constant_potential(self):
        w = PotentialDensities(lambda X, x: 5.0, {})
        B, T = loading_from_potential(w, 1)
        assert B[0](np.array([0.5]), np.array([0.3])) == 0.0
        assert T == {}

    def test_linear_potential(self):
        # w = g x^1: B_1 = -g
        w = PotentialDensities(lambda X, x: 9.8 * float(x[0]), {})
        B, _ = loading_from_potential(w, 1)
        assert B[0](np.array([0.5]), np.array([0.3])) == pytest.approx(-9.8, abs=1e-8)

    def test_quadratic_potential(self):
        # w = (1/2)|x|^2: B = -x
        w = PotentialDensities(lambda X, x: 0.5 * float(np.dot(x, x)), {})
        B, _ = loading_from_potential(w, 2)
        x = np.array([0.4, -1.1])
        got = np.array([B[i](np.array([0.5]), x) for i in range(2)])
        assert np.allclose(got, -x, atol=1e-8)

    def test_surface_potential(self):
        face = BoundaryFace(0, "upper")
        w = PotentialDensities(lambda X, x: 0.0, {face: lambda X, x: -float(x[0])})
        _, T = loading_from_potential(w, 1)
        t = T[face]
        assert t[0](np.array([1.0]), np.array([0.3])) == pytest.approx(1.0, abs=1e-8)

    def test_pullback_loading(self):
        face = BoundaryFace(0, "upper")
        B = ((lambda X, x: float(X[0] + x[0])),)
        T = {face: ((lambda X, x: float(X[0] * x[0])),)}
        kappa = Configuration((ScalarField(lambda X: X[..., 0] ** 2),))
        f = pullback_loading(B, T, kappa)
        assert f.body.value([0.5])[0] == pytest.approx(0.75)
        assert f.on_face(face)[0]([0.5]) == pytest.approx(0.125)
        assert f.on_face(BoundaryFace(0, "lower"))[0]([0.0]) == 0.0


class TestBatchedJetProtocol:
    """Densities take a whole point set; each row is bitwise what the
    one-point call gives."""

    D, M, N = 2, 2, 50

    def batch(self, rng):
        return JetPoint(rng.uniform(0, 1, (self.N, self.D)), rng.uniform(-2, 2, (self.N, self.M)),
                        rng.uniform(-2, 2, (self.N, self.M, self.D)))

    def test_constitutive_from_lagrangian(self):
        rng = np.random.default_rng(11)
        psi = constitutive_from_lagrangian(scenarios.random_lagrangian(rng, self.M, self.D),
                                           self.M, self.D)
        jp = self.batch(rng)
        for g in psi.psi_lower + tuple(g for row in psi.psi_mixed for g in row):
            got = g(jp)
            assert got.shape == (self.N,)
            assert np.array_equal(got, [g(JetPoint(jp.X[k], jp.x[k], jp.xprime[k]))
                                        for k in range(self.N)])

    def test_loading_from_potential(self):
        face = BoundaryFace(0, "upper")
        w = PotentialDensities(
            lambda X, x: 0.5 * np.sum(x ** 2, axis=-1) + X[..., 0] * x[..., 1] ** 3,
            {face: lambda X, x: np.sin(x[..., 0] * x[..., 1])})
        B, T = loading_from_potential(w, self.M)
        jp = self.batch(np.random.default_rng(12))
        for g in B + T[face]:
            got = g(jp.X, jp.x)
            assert got.shape == (self.N,)
            assert np.array_equal(got, [g(jp.X[k], jp.x[k]) for k in range(self.N)])

    def test_pullback_constitutive(self):
        rng = np.random.default_rng(13)
        psi = constitutive_from_lagrangian(scenarios.random_lagrangian(rng, self.M, self.D),
                                           self.M, self.D)
        kappa = Configuration(tuple(fields.random_polynomial(rng, self.D, 3)
                                    for _ in range(self.M)))
        s = pullback_constitutive(psi, kappa, UNIT2)
        # boundary rows too, where the configuration jet takes one-sided stencils
        X = np.concatenate([uniform_grid(UNIT2, 5), rng.uniform(0, 1, (self.N - 25, self.D))])
        for f in s.s_lower + tuple(f for row in s.s_mixed for f in row):
            got = f(X)
            assert got.shape == (self.N,)
            assert np.array_equal(got, [f(Xk) for Xk in X])

    @pytest.mark.parametrize("density", [
        lambda jp: float(jp.xprime[0, 0]),  # a float of an array raises TypeError
        lambda jp: jp.xprime[0, 0],         # the first row only: the wrong shape
    ], ids=["float", "first-row"])
    def test_one_point_density_on_a_point_set_raises(self, density):
        psi = ConstitutiveDensity(((lambda jp: 0.0),), ((density,),))
        s = pullback_constitutive(psi, Configuration((ScalarField(lambda X: X[..., 0]),)), UNIT1)
        assert s.s_mixed[0][0]([0.4]) == pytest.approx(1.0, abs=1e-8)
        with pytest.raises((TypeError, ValueError)):
            s.s_mixed[0][0](uniform_grid(UNIT1, 5))
        with pytest.raises((TypeError, ValueError)):
            total_energy(Configuration((ScalarField(lambda X: X[..., 0]),)),
                         LagrangianDensity(density), None, UNIT1)


class TestTotalEnergy:
    def test_all_zero(self):
        kappa = Configuration((fields.constant_field(0.0),))
        L = LagrangianDensity(lambda jp: 0.0)
        assert total_energy(kappa, L, None, UNIT1) == 0.0

    def test_quadratic_stored_energy(self):
        # L = (1/2)(x')^2, kappa = X: energy 1/2
        kappa = Configuration((ScalarField(lambda X: X[..., 0]),))
        L = LagrangianDensity(lambda jp: 0.5 * jp.xprime[..., 0, 0] ** 2)
        assert total_energy(kappa, L, None, UNIT1) == pytest.approx(0.5, abs=1e-10)

    def test_constant_shift(self):
        kappa = Configuration((ScalarField(lambda X: X[..., 0]),))
        L1 = LagrangianDensity(lambda jp: 0.5 * jp.xprime[..., 0, 0] ** 2)
        L2 = LagrangianDensity(lambda jp: 0.5 * jp.xprime[..., 0, 0] ** 2 + 3.0)
        e1 = total_energy(kappa, L1, None, UNIT1)
        e2 = total_energy(kappa, L2, None, UNIT1)
        assert e2 - e1 == pytest.approx(3.0, abs=1e-12)

    def test_potential_terms(self):
        face = BoundaryFace(0, "upper")
        w = PotentialDensities(lambda X, x: x[..., 0], {face: lambda X, x: x[..., 0]})
        kappa = Configuration((ScalarField(lambda X: X[..., 0]),))
        # body integral of X is 1/2, face value at X=1 is 1
        assert total_energy(kappa, None, w, UNIT1) == pytest.approx(1.5, abs=1e-12)


class TestEnergyVariation:
    def test_zero_velocity(self):
        kappa = Configuration((ScalarField(lambda X: X[..., 0]),))
        L = LagrangianDensity(lambda jp: 0.5 * jp.xprime[..., 0, 0] ** 2)
        v = VelocityField((fields.constant_field(0.0),))
        assert energy_variation_residual(kappa, v, L, UNIT1) <= 1e-12

    def test_linear_configuration(self):
        # kappa = X, v = X(1-X): both sides equal integral of (1 - 2X) = 0
        kappa = Configuration((ScalarField(lambda X: X[..., 0]),))
        L = LagrangianDensity(lambda jp: 0.5 * jp.xprime[..., 0, 0] ** 2)
        v = VelocityField((ScalarField(lambda X: X[..., 0] * (1 - X[..., 0])),))
        assert energy_variation_residual(kappa, v, L, UNIT1) <= 1e-8

    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_polynomial_data(self, seed):
        rng = np.random.default_rng(seed)
        kappa = Configuration((fields.random_polynomial(rng, 1, 3),))
        v = VelocityField((fields.random_polynomial(rng, 1, 3),))
        L = LagrangianDensity(lambda jp: 0.5 * jp.xprime[..., 0, 0] ** 2
                              + jp.x[..., 0] ** 2)
        assert energy_variation_residual(kappa, v, L, UNIT1) <= 1e-6


def bar_problem():
    """Uniaxial bar: quadratic stored energy, unit pull at the top end,
    uniform body load; kappa* = X^2/2 solves it exactly."""
    L = LagrangianDensity(lambda jp: 0.5 * jp.xprime[..., 0, 0] ** 2)
    psi = constitutive_from_lagrangian(L, 1, 1)
    upper = BoundaryFace(0, "upper")
    w = PotentialDensities(lambda X, x: x[..., 0],
                           {upper: lambda X, x: -x[..., 0]})
    B, T = loading_from_potential(w, 1)
    kappa = Configuration((ScalarField(lambda X: 0.5 * X[..., 0] ** 2),))
    return L, psi, w, B, T, kappa


class TestBVP:
    def test_trivial_problem(self):
        psi = ConstitutiveDensity(((lambda jp: 0.0),), (((lambda jp: 0.0),),))
        kappa = Configuration((fields.constant_field(0.0),))
        B = ((lambda X, x: 0.0),)
        T = {}
        assert bvp_residual(kappa, psi, B, T, UNIT1) == (0.0, 0.0)

    def test_unbalanced_loading(self):
        psi = ConstitutiveDensity(((lambda jp: 0.0),), (((lambda jp: 0.0),),))
        kappa = Configuration((fields.constant_field(0.0),))
        B = ((lambda X, x: 1.0),)
        interior, _ = bvp_residual(kappa, psi, B, {}, UNIT1)
        assert interior == pytest.approx(1.0)

    def test_manufactured_bar_solution(self):
        _, psi, _, B, T, kappa = bar_problem()
        interior, boundary = bvp_residual(kappa, psi, B, T, UNIT1)
        assert interior <= 1e-6
        assert boundary <= 1e-6

    def test_residual_detects_perturbation(self):
        _, psi, _, B, T, kappa = bar_problem()
        eps = 1e-2
        bent = Configuration((ScalarField(
            lambda X: 0.5 * X[..., 0] ** 2 + eps * np.sin(np.pi * X[..., 0])),))
        interior, _ = bvp_residual(bent, psi, B, T, UNIT1)
        assert interior >= 5e-3

    def test_nan_loading_on_the_upper_face_is_the_result(self):
        _, psi, _, B, _, kappa = bar_problem()
        T = {BoundaryFace(0, "lower"): ((lambda X, x: 0.0),),
             BoundaryFace(0, "upper"): ((lambda X, x: np.nan),)}
        interior, boundary = bvp_residual(kappa, psi, B, T, UNIT1)
        assert interior <= 1e-6
        assert math.isnan(boundary)

    def test_loading_needs_one_component_per_fiber_axis(self):
        _, psi, _, _, _, kappa = bar_problem()
        B = ((lambda X, x: 0.0),) * 2
        with pytest.raises(ValueError, match="the stress 1"):
            bvp_residual(kappa, psi, B, {}, UNIT1)

    @pytest.mark.parametrize("count", [0, 2])
    def test_surface_loading_needs_one_component_per_fiber_axis(self, count):
        _, _, _, B, _, kappa = bar_problem()
        T = {BoundaryFace(0, "upper"): ((lambda X, x: 1.0),) * count}
        with pytest.raises(ValueError, match="traction components"):
            pullback_loading(B, T, kappa)

    def test_weak_criticality_implies_strong_residual(self):
        # the first variation of the total energy vanishes at the bar solution
        # for every test velocity, and the strong-form residuals vanish with it
        L, psi, w, B, T, kappa = bar_problem()
        t_step = 1e-5
        rng = np.random.default_rng(23)
        for _ in range(5):
            v = VelocityField((fields.random_polynomial(rng, 1, 3),))

            def energy_at(t):
                comps = (ScalarField(
                    lambda X, t=t: kappa.components[0](X) + t * v.components[0](X)),)
                return total_energy(Configuration(comps), L, w, UNIT1)

            variation = (energy_at(t_step) - energy_at(-t_step)) / (2 * t_step)
            assert abs(variation) <= 1e-6
        interior, boundary = bvp_residual(kappa, psi, B, T, UNIT1)
        assert max(interior, boundary) <= 1e-5


def test_hyperelastic_power_matches_energy_rate():
    # stress from the Lagrangian gradient expends exactly the stored-energy
    # rate: the two pipelines share no code past the Lagrangian itself
    rng = np.random.default_rng(77)
    L = LagrangianDensity(
        lambda jp: 0.5 * np.sum(jp.xprime ** 2, axis=(-2, -1)) + np.sum(jp.x ** 2, axis=-1))
    kappa = Configuration(tuple(fields.random_polynomial(rng, 2, 2)
                                for _ in range(2)))
    v = VelocityField(tuple(fields.random_polynomial(rng, 2, 2) for _ in range(2)))
    assert energy_variation_residual(kappa, v, L, UNIT2, QuadratureRule(6)) <= 1e-6


@pytest.mark.parametrize("m, d", [(1, 1), (2, 2), (3, 2)])
def test_random_lagrangian_terms_are_the_ndindex_filter(m, d):
    # the monomials of total degree 1..3 in np.ndindex order, so that each
    # coefficient draw lands on the term it did when every one of the
    # 4**(m + m*d) exponent tuples was walked
    n = m + m * d
    want = [p for p in np.ndindex(*(4,) * n) if 0 < sum(p) <= 3]
    assert [p for p in scenarios._exponents(n, 3) if any(p)] == want
    rng = np.random.default_rng(n)
    terms = [(rng.uniform(-1.0, 1.0), np.array(p)) for p in want]
    L = scenarios.random_lagrangian(np.random.default_rng(n), m, d)
    jp = JetPoint(np.zeros((20, d)), *(rng.uniform(-2, 2, shape) for shape in ((20, m), (20, m, d))))
    coords = np.concatenate([jp.x, jp.xprime.reshape(20, -1)], axis=-1)
    assert np.array_equal(L(jp), sum(c * np.prod(coords ** p, axis=-1) for c, p in terms))
