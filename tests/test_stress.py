import numpy as np
import pytest

from jetstress import fields
from jetstress.chart import (
    BoundaryFace,
    ChartDomain,
    FDScheme,
    QuadratureRule,
    ScalarField,
    integrate_volume,
    partial_derivative,
    uniform_grid,
)
from jetstress.forces import SurfaceForceDensity
from jetstress.sections import VelocityField, VelocityJet, jet_prolong_velocity
from jetstress.stress import (
    TractionStressDensity,
    VariationalStressDensity,
    cauchy_face_components,
    divergence,
    exterior_jet,
    stress_pairing,
    traction_extract,
    virtual_power_of_stress,
)

UNIT1 = ChartDomain.unit(1)
UNIT2 = ChartDomain.unit(2)


def const_stress(lower, mixed):
    return VariationalStressDensity(
        tuple(fields.constant_field(c) for c in lower),
        tuple(tuple(fields.constant_field(c) for c in row) for row in mixed))


def const_jet(xd, xdp):
    xd = np.asarray(xd, dtype=float)
    xdp = np.asarray(xdp, dtype=float)
    return VelocityJet(lambda X: (xd, xdp), len(xd))


def random_stress(rng, d, m, with_lower=True):
    zero = fields.constant_field(0.0)
    lower = tuple(fields.random_polynomial(rng, d, 3) if with_lower else zero
                  for _ in range(m))
    mixed = tuple(tuple(fields.random_polynomial(rng, d, 3) for _ in range(d))
                  for _ in range(m))
    return VariationalStressDensity(lower, mixed)


class TestPairing:
    def test_zero_stress(self):
        s = const_stress([0.0], [[0.0]])
        assert stress_pairing(s, const_jet([5.0], [[7.0]]), [0.5]) == 0.0

    def test_scalar_example(self):
        s = const_stress([2.0], [[3.0]])
        assert stress_pairing(s, const_jet([5.0], [[7.0]]), [0.5]) == pytest.approx(31.0)

    def test_matches_index_loop_oracle(self):
        rng = np.random.default_rng(21)
        d, m = 2, 3
        s = random_stress(rng, d, m)
        v = VelocityField(tuple(fields.random_polynomial(rng, d, 3) for _ in range(m)))
        eta = jet_prolong_velocity(v, UNIT2)
        for X in uniform_grid(UNIT2, 4):
            xd, xdp = eta(X)
            ref = sum(s.s_lower[i](X) * xd[i] for i in range(m))
            ref += sum(s.s_mixed[i][a](X) * xdp[i, a]
                       for i in range(m) for a in range(d))
            assert stress_pairing(s, eta, X) == pytest.approx(ref, abs=1e-13)

    def test_bilinear(self):
        s = const_stress([2.0], [[3.0]])
        s2 = const_stress([4.0], [[6.0]])
        eta = const_jet([5.0], [[7.0]])
        eta2 = const_jet([10.0], [[14.0]])
        base = stress_pairing(s, eta, [0.5])
        assert stress_pairing(s2, eta, [0.5]) == pytest.approx(2 * base)
        assert stress_pairing(s, eta2, [0.5]) == pytest.approx(2 * base)

    def test_fiber_mismatch_rejected(self):
        s = const_stress([1.0, 1.0], [[1.0], [1.0]])
        with pytest.raises(ValueError):
            stress_pairing(s, const_jet([1.0], [[1.0]]), [0.5])


class TestVirtualPower:
    def test_zero(self):
        s = const_stress([0.0], [[0.0]])
        v = VelocityField((ScalarField(lambda X: X[..., 0]),))
        assert virtual_power_of_stress(s, (v,), UNIT1)[0] == 0.0

    def test_gradient_pairing(self):
        # s_1^1 = 1, v = X: power = integral of dv/dX = 1
        s = const_stress([0.0], [[1.0]])
        v = VelocityField((ScalarField(lambda X: X[..., 0]),))
        assert virtual_power_of_stress(s, (v,), UNIT1)[0] == pytest.approx(1.0, abs=1e-10)

    def test_homogeneous_in_stress(self):
        rng = np.random.default_rng(4)
        s = random_stress(rng, 1, 1)
        s2 = VariationalStressDensity(
            tuple(fields.scaled(f, 2.0) for f in s.s_lower),
            tuple(tuple(fields.scaled(f, 2.0) for f in row) for row in s.s_mixed))
        v = VelocityField((fields.random_polynomial(rng, 1, 3),))
        p1 = virtual_power_of_stress(s, (v,), UNIT1)[0]
        p2 = virtual_power_of_stress(s2, (v,), UNIT1)[0]
        assert p2 == pytest.approx(2 * p1, rel=1e-12)

    def test_stress_evaluated_once_for_any_number_of_velocities(self):
        rng = np.random.default_rng(17)
        d, m = 2, 2
        base = random_stress(rng, d, m)
        calls = {}

        def counted(f, key):
            calls[key] = 0

            def ev(X):
                calls[key] += 1
                return f(X)

            return ScalarField(ev)

        s = VariationalStressDensity(
            tuple(counted(f, ("lower", i)) for i, f in enumerate(base.s_lower)),
            tuple(tuple(counted(f, ("mixed", i, a)) for a, f in enumerate(row))
                  for i, row in enumerate(base.s_mixed)))
        vs = [VelocityField(tuple(fields.random_polynomial(rng, d, 3) for _ in range(m)))
              for _ in range(5)]
        rule = QuadratureRule(4, panels=2)

        def evaluate(velocities):
            calls.update(dict.fromkeys(calls, 0))
            return virtual_power_of_stress(s, velocities, UNIT2, rule), dict(calls)

        _, one = evaluate(vs[:1])
        powers, five = evaluate(vs)
        assert all(n > 0 for n in one.values())
        assert five == one
        singles = [evaluate([v])[0] for v in vs]
        assert powers.shape == (5,) and all(p.shape == (1,) for p in singles)
        assert all(powers[j] == singles[j][0] for j in range(5))

    @pytest.mark.parametrize("k", [1, 5])
    def test_one_gradient_for_all_velocities_matches_per_velocity_jets(self, k):
        # the parent's arithmetic: each velocity's jet on its own, its
        # gradient block from one partial_derivative per (component, axis)
        rng = np.random.default_rng(18)
        d, m = 2, 3
        s = random_stress(rng, d, m)
        vs = [VelocityField(tuple(fields.random_polynomial(rng, d, 3) for _ in range(m)))
              for _ in range(k)]
        rule, scheme = QuadratureRule(4, panels=2), FDScheme(1e-3, 4)

        def gradient_block(v, X):
            return np.stack([np.stack([partial_derivative(f, a, X, UNIT2, scheme)
                                       for a in range(d)], axis=-1)
                             for f in v.components], axis=-2)

        def jets(X):
            return (np.stack([v.value(X) for v in vs]),
                    np.stack([gradient_block(v, X) for v in vs]))

        want = integrate_volume(lambda X: stress_pairing(s, VelocityJet(jets, m), X),
                                UNIT2, rule)
        got = virtual_power_of_stress(s, vs, UNIT2, rule, scheme)
        assert got.shape == (k,) and np.array_equal(got, want)
        singles = [virtual_power_of_stress(s, [v], UNIT2, rule, scheme)[0] for v in vs]
        assert np.array_equal(got, singles)

    def test_value_blocks_match_component_fields(self):
        rng = np.random.default_rng(5)
        s = random_stress(rng, 2, 3)
        X = uniform_grid(UNIT2, 4)
        lower, mixed = s.value(X)
        assert lower.shape == (16, 3) and mixed.shape == (16, 3, 2)
        for i in range(3):
            assert np.array_equal(lower[:, i], s.s_lower[i](X))
            for a in range(2):
                assert np.array_equal(mixed[:, i, a], s.s_mixed[i][a](X))

    def test_pairing_broadcasts_over_a_leading_velocity_axis(self):
        rng = np.random.default_rng(8)
        s = random_stress(rng, 2, 2)
        etas = [jet_prolong_velocity(
            VelocityField(tuple(fields.random_polynomial(rng, 2, 3) for _ in range(2))), UNIT2)
            for _ in range(3)]
        X = uniform_grid(UNIT2, 5)
        stacked = VelocityJet(lambda X: tuple(np.stack(b) for b in zip(*(e(X) for e in etas))), 2)
        paired = stress_pairing(s, stacked, X)
        assert paired.shape == (3, 25)
        for j, eta in enumerate(etas):
            assert np.array_equal(paired[j], stress_pairing(s, eta, X))

    @pytest.mark.parametrize("vs", [[], [VelocityField((fields.constant_field(1.0),))]],
                             ids=["empty", "fiber-mismatch"])
    def test_bad_velocity_sequence_rejected(self, vs):
        with pytest.raises(ValueError):
            virtual_power_of_stress(random_stress(np.random.default_rng(1), 2, 2), vs, UNIT2)


class TestTractionExtract:
    def test_keeps_mixed_block(self):
        s = const_stress([9.0], [[4.0]])
        tau = traction_extract(s)
        assert tau.tau[0][0]([0.3]) == 4.0

    def test_zero_mixed(self):
        s = const_stress([9.0], [[0.0]])
        assert traction_extract(s).tau[0][0]([0.3]) == 0.0

    def test_extract_after_exterior_jet_is_identity(self):
        # P(exterior_jet(tau)) hands back the very same component objects
        rng = np.random.default_rng(8)
        tau = TractionStressDensity(
            tuple(tuple(fields.random_polynomial(rng, 2, 3) for _ in range(2))
                  for _ in range(2)))
        back = traction_extract(exterior_jet(tau, UNIT2))
        assert back.tau is tau.tau


class TestExteriorJet:
    def test_constant_traction(self):
        tau = TractionStressDensity(((fields.constant_field(2.0),
                                      fields.constant_field(-1.0)),))
        s = exterior_jet(tau, UNIT2)
        assert abs(s.s_lower[0]([0.4, 0.6])) <= 1e-11
        assert s.s_mixed[0][0]([0.4, 0.6]) == 2.0

    def test_coordinate_traction(self):
        # tau^1 = X1, tau^2 = X2: lower block is the plain divergence, 2
        tau = TractionStressDensity(((ScalarField(lambda X: X[..., 0]),
                                      ScalarField(lambda X: X[..., 1])),))
        s = exterior_jet(tau, UNIT2)
        assert s.s_lower[0]([0.4, 0.6]) == pytest.approx(2.0, abs=1e-9)

    def test_defining_pairing_identity(self):
        # pairing of exterior_jet(tau) with j1(v) equals
        # sum_a d_a(tau_i^a) v^i + tau_i^a d_a v^i pointwise
        rng = np.random.default_rng(13)
        d, m = 2, 2
        tau = TractionStressDensity(
            tuple(tuple(fields.random_polynomial(rng, d, 3) for _ in range(d))
                  for _ in range(m)))
        v = VelocityField(tuple(fields.random_polynomial(rng, d, 3) for _ in range(m)))
        s = exterior_jet(tau, UNIT2)
        eta = jet_prolong_velocity(v, UNIT2)
        scheme = FDScheme()
        for X in uniform_grid(UNIT2, 4, margin=0.05):
            ref = 0.0
            for i in range(m):
                for a in range(d):
                    ref += partial_derivative(tau.tau[i][a], a, X, UNIT2, scheme) * v.components[i](X)
                    ref += tau.tau[i][a](X) * partial_derivative(v.components[i], a, X, UNIT2, scheme)
            assert stress_pairing(s, eta, X) == pytest.approx(ref, abs=1e-6)


class TestDivergence:
    def test_constant_stress(self):
        s = const_stress([3.0], [[5.0]])
        div = divergence(s, UNIT1)
        assert div.value([0.5])[0] == pytest.approx(-3.0, abs=1e-11)

    def test_linear_mixed_block(self):
        # s_1 = 1, s_1^1 = X: div = 1 - 1 = 0
        s = VariationalStressDensity((fields.constant_field(1.0),),
                                     ((ScalarField(lambda X: X[..., 0]),),))
        assert abs(divergence(s, UNIT1).value([0.5])[0]) <= 1e-10

    def test_exterior_jet_has_zero_divergence(self):
        # div(exterior_jet(tau)) = 0 identically, the null-stress property
        rng = np.random.default_rng(17)
        tau = TractionStressDensity(
            tuple(tuple(fields.random_polynomial(rng, 2, 3) for _ in range(2))
                  for _ in range(1)))
        div = divergence(exterior_jet(tau, UNIT2), UNIT2)
        worst = max(abs(div.value(X)[0]) for X in uniform_grid(UNIT2, 5))
        assert worst <= 1e-6


class TestCauchy:
    def test_upper_face(self):
        tau = TractionStressDensity(((fields.constant_field(2.0),
                                      fields.constant_field(7.0)),))
        t = cauchy_face_components(tau, BoundaryFace(1, "upper"), UNIT2)
        assert t[0]([0.5, 1.0]) == pytest.approx(7.0)

    def test_lower_face_sign(self):
        tau = TractionStressDensity(((fields.constant_field(2.0),
                                      fields.constant_field(7.0)),))
        t = cauchy_face_components(tau, BoundaryFace(1, "lower"), UNIT2)
        assert t[0]([0.5, 0.0]) == pytest.approx(-7.0)

    def test_zero_traction(self):
        tau = TractionStressDensity(((fields.constant_field(0.0),),))
        t = cauchy_face_components(tau, BoundaryFace(0, "upper"), UNIT1)
        assert t[0]([1.0]) == 0.0

    def test_periodic_axis_rejected(self):
        dom = ChartDomain.unit(2, periodic=[0])
        tau = TractionStressDensity(((fields.constant_field(1.0),
                                      fields.constant_field(1.0)),))
        with pytest.raises(ValueError):
            cauchy_face_components(tau, BoundaryFace(0, "upper"), dom)

    def test_single_face_density(self):
        tau = TractionStressDensity(((fields.constant_field(3.0),),))
        face = BoundaryFace(0, "upper")
        sf = SurfaceForceDensity({face: cauchy_face_components(tau, face, UNIT1)})
        assert sf.on_face(face, 1)[0]([1.0]) == pytest.approx(3.0)
        other = BoundaryFace(0, "lower")
        assert sf.on_face(other, 1)[0]([0.0]) == 0.0


def test_null_stress_zero_virtual_power():
    # an exterior jet of interior-supported tractions expends no power on any
    # velocity: static indeterminacy of the stress representation
    rule = QuadratureRule(8, panels=4)
    tau = TractionStressDensity(
        ((fields.poly_bump_field([(0.25, 0.75)], 1.3),),))
    s = exterior_jet(tau, UNIT1)
    rng = np.random.default_rng(2)
    vs = [VelocityField((fields.random_polynomial(rng, 1, 3),)) for _ in range(3)]
    for power in virtual_power_of_stress(s, vs, UNIT1, rule):
        assert abs(power) <= 1e-8
