"""Input checks that reject a malformed record or argument, and two branches
of the seeded field and generator families."""
import math

import numpy as np
import pytest

from jetstress import fields
from jetstress.chart import BoundaryFace, ChartDomain, FDScheme, QuadratureRule, ScalarField
from jetstress.forces import rotation_generator
from jetstress.forms import FlatMetric, PForm, exterior_derivative, wedge
from jetstress.sections import Configuration, VelocityJet
from jetstress.stress import VariationalStressDensity, stress_pairing

ONE = fields.constant_field(1.0)

# id -> (the message's start, a call that must raise ValueError with it)
BAD_INPUTS = {
    "face side": ("side must be", lambda: BoundaryFace(0, "middle")),
    "domain lengths": ("bounds and axis_kind length mismatch",
                       lambda: ChartDomain(((0.0, 1.0),), ("boundary", "boundary"))),
    "domain without axes": ("domain needs at least one axis", lambda: ChartDomain((), ())),
    "axis kind": ("unknown axis kind", lambda: ChartDomain(((0.0, 1.0),), ("twisted",))),
    "fd order": ("FD order must be 2 or 4", lambda: FDScheme(1e-3, 3)),
    "quadrature order": ("quadrature order and panels", lambda: QuadratureRule(0)),
    "quadrature panels": ("quadrature order and panels", lambda: QuadratureRule(8, 0)),
    "form index": (r"index \(2,\) out of range", lambda: PForm(1, 2, {(2,): ONE})),
    "metric signature": ("signature entries", lambda: FlatMetric((1, 2))),
    "wedge dims": ("dimension mismatch", lambda: wedge(PForm(1, 2, {}), PForm(1, 3, {}))),
    "derivative dim": ("form dimension does not match domain",
                       lambda: exterior_derivative(PForm(1, 3, {}), ChartDomain.unit(2))),
    "stress fiber dims": ("s_lower and s_mixed fiber dimensions differ",
                          lambda: VariationalStressDensity((ONE,), ((ONE,), (ONE,)))),
    # a 1-fiber stress on a 1-d base pairs with a (1, 1) gradient block, not (1, 2)
    "pairing block": ("gradient block shape mismatch", lambda: stress_pairing(
        VariationalStressDensity((ONE,), ((ONE,),)),
        VelocityJet(lambda X: (np.zeros(1), np.zeros((1, 2))), 1), [0.5])),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_malformed_input_raises(case):
    message, call = BAD_INPUTS[case]
    with pytest.raises(ValueError, match=message):
        call()


def test_random_sine_field_replaces_an_all_zero_wavevector():
    # seed 29's first mode draws the wavevector (0, 0), which would be constant
    draw = np.random.default_rng(29)
    amp = draw.uniform(-1.0, 1.0)
    assert not np.any(draw.integers(-2, 3, size=2))
    phase = draw.uniform(0.0, 2.0 * math.pi)
    f = fields.random_sine_field(np.random.default_rng(29), 2, n_modes=1)
    X = np.array([[0.1, 0.7], [0.35, 0.2], [0.8, 0.9]])
    np.testing.assert_allclose(f(X), amp * np.sin(2.0 * math.pi * X[:, 0] + phase),
                               rtol=0, atol=1e-15)


def test_rotation_generator_leaves_the_third_component_zero():
    kappa = Configuration(tuple(ScalarField(lambda X, i=i: X[..., i] + 1.0) for i in range(3)))
    (label, g), = rotation_generator(kappa, 0, 1).items()
    assert label == "rotation_01"
    assert g.value([0.3, 0.8, 0.5]).tolist() == [-1.8, 1.3, 0.0]
