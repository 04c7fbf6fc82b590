import math

import numpy as np
import pytest

from jetstress import fields
from jetstress.chart import ChartDomain, FDScheme, ScalarField, uniform_grid
from jetstress.sections import (
    Configuration,
    FiberSpec,
    JetPoint,
    JetSection,
    VelocityField,
    holonomy_residual,
    iso_K,
    iso_K_inv,
    jet_prolong_config,
    jet_prolong_velocity,
)

UNIT1 = ChartDomain.unit(1)
UNIT2 = ChartDomain.unit(2)


def test_fiber_spec_rejects_nonpositive():
    with pytest.raises(ValueError):
        FiberSpec(0)


class TestProlongation:
    def test_quadratic_scalar(self):
        kappa = Configuration((ScalarField(lambda X: X[..., 0] ** 2),))
        jet = jet_prolong_config(kappa, UNIT1)
        jp = JetPoint([0.5], *jet([0.5]))
        assert jp.x[0] == pytest.approx(0.25, abs=1e-12)
        assert jp.xprime[0, 0] == pytest.approx(1.0, abs=1e-8)

    def test_constant_configuration(self):
        kappa = Configuration((fields.constant_field(3.0),) * 2)
        jp = JetPoint([0.3, 0.9], *jet_prolong_config(kappa, UNIT2)([0.3, 0.9]))
        assert np.allclose(jp.x, [3.0, 3.0])
        assert np.max(np.abs(jp.xprime)) <= 1e-10

    def test_periodic_component(self):
        dom = ChartDomain.unit(1, periodic=[0])
        kappa = Configuration((ScalarField(lambda X: np.sin(2 * math.pi * X[..., 0])),))
        jp = JetPoint([0.0], *jet_prolong_config(kappa, dom)([0.0]))
        assert jp.xprime[0, 0] == pytest.approx(2 * math.pi, rel=1e-7)

    def test_velocity_polynomial_gradient(self):
        rng = np.random.default_rng(7)
        v = VelocityField((fields.random_polynomial(rng, 2, 3),
                           fields.random_polynomial(rng, 2, 3)))
        eta = jet_prolong_velocity(v, UNIT2, FDScheme(1e-3, 4))
        for X in uniform_grid(UNIT2, 5):
            xd, xdp = eta(X)
            assert np.allclose(xd, v.value(X))
            h = 1e-5
            for i in range(2):
                for a in range(2):
                    Xp, Xm = np.array(X), np.array(X)
                    Xp[a] += h
                    Xm[a] -= h
                    ref = (v.components[i](Xp) - v.components[i](Xm)) / (2 * h)
                    assert xdp[i, a] == pytest.approx(ref, abs=1e-6)

    def test_prolongation_is_linear(self):
        rng = np.random.default_rng(11)
        v = VelocityField((fields.random_polynomial(rng, 2, 3),))
        w = VelocityField((fields.random_polynomial(rng, 2, 3),))
        a, b = 2.5, -0.75
        comb = VelocityField((ScalarField(
            lambda X: a * v.components[0](X) + b * w.components[0](X)),))
        jc = jet_prolong_velocity(comb, UNIT2)
        jv = jet_prolong_velocity(v, UNIT2)
        jw = jet_prolong_velocity(w, UNIT2)
        for X in uniform_grid(UNIT2, 4):
            cd, cdp = jc(X)
            vd, vdp = jv(X)
            wd, wdp = jw(X)
            assert np.allclose(cd, a * vd + b * wd, atol=1e-12)
            assert np.allclose(cdp, a * vdp + b * wdp, atol=1e-10)

    def test_velocity_jet_factors_through_value_and_gradient(self):
        # the jet of v is determined by (v, grad v): recomputing from the
        # value block alone reproduces the gradient block
        rng = np.random.default_rng(3)
        v = VelocityField((fields.random_polynomial(rng, 2, 3),))
        eta = jet_prolong_velocity(v, UNIT2)
        xi = JetSection(lambda X: eta(X), 1)
        assert holonomy_residual(xi, UNIT2, samples=5) <= 1e-9


class TestIsoK:
    def test_scalar_reorder(self):
        assert iso_K(0.0, 1.0, 2.0, 3.0, 4.0) == (0.0, 1.0, 3.0, 2.0, 4.0)

    def test_round_trip_bitwise(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            m, d = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            r = (rng.standard_normal(d), rng.standard_normal(m),
                 rng.standard_normal((m, d)), rng.standard_normal(m),
                 rng.standard_normal((m, d)))
            back = iso_K_inv(*iso_K(*r))
            for orig, rec in zip(r, back):
                assert orig is rec  # pure reordering, no copies

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            iso_K(np.zeros(2), np.zeros(2), np.zeros((2, 2)),
                  np.zeros(3), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            iso_K_inv(np.zeros(2), np.zeros(2), np.zeros(2),
                      np.zeros((2, 2)), np.zeros((2, 3)))


class TestHolonomy:
    def test_prolonged_jet_is_holonomic(self):
        rng = np.random.default_rng(5)
        kappa = Configuration((fields.random_polynomial(rng, 2, 3),))
        jet = jet_prolong_config(kappa, UNIT2)
        assert holonomy_residual(jet, UNIT2, samples=9) <= 1e-6

    def test_an_order_2_jet_against_its_own_scheme_and_the_default(self):
        # checked with its own scheme, the jet's gradient block is the same
        # stencil sums of the same values, so nothing is left; checked with
        # the default order-4 scheme, what is left is the order-2 truncation
        # error, which falls as h**2
        rng = np.random.default_rng(5)
        kappa = Configuration((fields.random_polynomial(rng, 2, 3),))
        against_default = []
        for scheme in (FDScheme(1e-2, 2), FDScheme(1e-3, 2)):
            xi = jet_prolong_config(kappa, UNIT2, scheme)
            assert holonomy_residual(xi, UNIT2, scheme, samples=9) == 0.0
            against_default.append(holonomy_residual(xi, UNIT2, samples=9))
        coarse, fine = against_default
        assert 1e-7 < fine and 50 < coarse / fine < 200

    def test_constant_gradient_offset(self):
        # x = 0 with claimed gradient 1: residual is exactly the offset
        xi = JetSection(lambda X: (np.zeros(1), np.ones((1, 1))), 1)
        assert holonomy_residual(xi, UNIT1, samples=5) == pytest.approx(1.0, abs=1e-10)

    def test_perturbation_scale(self):
        # perturbing the gradient block by an eps bump moves the residual by
        # about eps
        eps = 1e-3
        kappa = Configuration((ScalarField(lambda X: X[..., 0] ** 3),))
        jet = jet_prolong_config(kappa, UNIT1)
        bump = fields.poly_bump_field([(0.2, 0.8)], eps)

        def ev(X):
            x, xp = jet(X)
            return x, xp + np.asarray(bump(X))[..., None, None]

        res = holonomy_residual(JetSection(ev, 1), UNIT1, samples=9)
        assert abs(res - eps) <= 0.1 * eps
