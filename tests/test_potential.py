import math

import numpy as np
import pytest

from gravtwin import (
    PairPotential,
    ParticleSpecies,
    UnitSystem,
    ValidationError,
    make_grid,
)

# Frozen from an independent 40-digit decimal evaluation of the closed
# forms (notes kept outside the package).
S1_V1_T1 = 0.5665276697298962      # s_max = 1/sqrt(2), inside the core
S1_V1_T4 = 1.4825014029435950      # s_max = 2 sqrt(2), crosses the branch
S1_NEUTRON = 2.0246442269621128e-66
S0_NEUTRON = 1.0213954329545455e-53

UNIT = ParticleSpecies(mass=1.0, radius=1.0)


def dimensionless_pair(g=1.0):
    return PairPotential(UNIT, UnitSystem.dimensionless(g=g))


def neutron_pair():
    sp = ParticleSpecies(mass=1.675e-27, radius=1e-15)
    return sp, PairPotential(sp, UnitSystem.si())


def test_value_at_zero():
    pair = dimensionless_pair()
    np.testing.assert_allclose(pair.evaluate(0.0), -0.6, rtol=1e-12)


def test_value_at_contact():
    pair = dimensionless_pair()
    np.testing.assert_allclose(pair.evaluate(2.0), -0.25, rtol=1e-12)


def test_interior_value():
    # r = R, inner branch: (80 - 30 + 1 - 192)/320 = -141/320
    pair = dimensionless_pair()
    np.testing.assert_allclose(pair.evaluate(1.0), -0.440625, rtol=1e-12)


def test_far_branch_is_half_kepler():
    pair = dimensionless_pair()
    for r in (2.0, 3.0, 10.0, 1e3):
        np.testing.assert_allclose(pair.evaluate(r), -0.5 / r, rtol=1e-12)


def test_continuity_at_branch():
    pair = dimensionless_pair()
    below = pair.evaluate(2.0 * (1.0 - 1e-9))
    above = pair.evaluate(2.0 * (1.0 + 1e-9))
    assert abs(above - below) / abs(below) < 1e-8


def test_monotone_and_nonpositive():
    pair = dimensionless_pair()
    r = np.linspace(0.0, 10.0, 10_001)
    v = pair.evaluate(r)
    assert np.all(v <= 0.0)
    assert np.all(np.diff(v) >= 0.0)


def test_far_tail_product():
    pair = dimensionless_pair()
    np.testing.assert_allclose(1e3 * pair.evaluate(1e3), -0.5, rtol=1e-3)


def test_coupling_scales_linearly():
    v1 = dimensionless_pair(g=1.0).evaluate(0.7)
    v3 = dimensionless_pair(g=3.0).evaluate(0.7)
    np.testing.assert_allclose(v3, 3.0 * v1, rtol=1e-14)


def test_zero_coupling():
    pair = dimensionless_pair(g=0.0)
    r = np.linspace(0.0, 5.0, 100)
    assert np.all(pair.evaluate(r) == 0.0)


def test_scalar_in_scalar_out():
    pair = dimensionless_pair()
    out = pair.evaluate(1.3)
    assert isinstance(out, float)


def test_negative_separation_rejected():
    pair = dimensionless_pair()
    with pytest.raises(ValidationError):
        pair.evaluate(-0.1)


def test_si_values():
    sp, pair = neutron_pair()
    gm2_over_r = 6.67430e-11 * sp.mass**2 / sp.radius
    np.testing.assert_allclose(pair.evaluate(0.0), -0.6 * gm2_over_r, rtol=1e-12)
    np.testing.assert_allclose(pair.evaluate(2 * sp.radius), -0.25 * gm2_over_r, rtol=1e-12)


def test_grid_matrix_symmetric_with_zero_diagonal_value():
    g = make_grid(-4.0, 4.0, 64)
    pair = dimensionless_pair()
    v = pair.evaluate_on_grid(g)
    assert v.shape == (64, 64)
    assert np.array_equal(v, v.T)
    np.testing.assert_allclose(np.diag(v), -0.6, rtol=1e-12)


def test_grid_matrix_matches_pointwise():
    g = make_grid(-4.0, 4.0, 32)
    pair = dimensionless_pair()
    v = pair.evaluate_on_grid(g)
    i, j = 3, 29
    np.testing.assert_allclose(v[i, j], pair.evaluate(abs(g.x[i] - g.x[j])), rtol=1e-13)


def test_coincident_action():
    pair = dimensionless_pair()
    act = pair.action_coincident(T=2.5)
    np.testing.assert_allclose(act, 1.5, rtol=1e-12)
    assert act >= 0.0


def test_separating_action_core_regime():
    # flight keeps |x - x~| below the branch point the whole way
    pair = dimensionless_pair()
    act = pair.action_integral_separating(v=1.0, T=1.0)
    np.testing.assert_allclose(act.closed_form, S1_V1_T1, rtol=1e-12)
    np.testing.assert_allclose(act.quadrature, act.closed_form, rtol=1e-10)


def test_separating_action_crossing_regime():
    pair = dimensionless_pair()
    act = pair.action_integral_separating(v=1.0, T=4.0)
    np.testing.assert_allclose(act.closed_form, S1_V1_T4, rtol=1e-12)
    np.testing.assert_allclose(act.quadrature, act.closed_form, rtol=1e-10)


def test_separating_action_neutron_scale():
    sp, pair = neutron_pair()
    act = pair.action_integral_separating(v=2.2e3, T=2 * 0.10 / 2.2e3)
    np.testing.assert_allclose(act.closed_form, S1_NEUTRON, rtol=1e-12)
    np.testing.assert_allclose(act.quadrature, act.closed_form, rtol=1e-10)


def test_coincident_action_neutron_scale():
    sp, pair = neutron_pair()
    act = pair.action_coincident(T=2 * 0.10 / 2.2e3)
    np.testing.assert_allclose(act, S0_NEUTRON, rtol=1e-12)


def test_action_sweep_quadrature_agreement():
    # 100-point speed sweep spanning both separation regimes
    pair = dimensionless_pair()
    for v in np.linspace(0.05, 8.0, 50):
        act = pair.action_integral_separating(v=float(v), T=1.0)
        np.testing.assert_allclose(act.quadrature, act.closed_form, rtol=1e-10)
    sp, npair = neutron_pair()
    for v in np.linspace(5e2, 5e3, 50):
        act = npair.action_integral_separating(v=float(v), T=2 * 0.10 / float(v))
        np.testing.assert_allclose(act.quadrature, act.closed_form, rtol=1e-10)


def test_actions_nonnegative():
    pair = dimensionless_pair()
    for v, T in [(0.2, 0.5), (1.0, 1.0), (3.0, 2.0), (0.5, 8.0)]:
        assert pair.action_integral_separating(v=v, T=T).closed_form >= 0.0
        assert pair.action_coincident(T=T) >= 0.0


def test_action_zero_coupling():
    pair = dimensionless_pair(g=0.0)
    act = pair.action_integral_separating(v=1.0, T=1.0)
    assert act.closed_form == 0.0 and act.quadrature == 0.0
    assert pair.action_coincident(T=1.0) == 0.0


def test_action_argument_validation():
    pair = dimensionless_pair()
    with pytest.raises(ValidationError):
        pair.action_integral_separating(v=0.0, T=1.0)
    with pytest.raises(ValidationError):
        pair.action_integral_separating(v=1.0, T=-1.0)
    with pytest.raises(ValidationError):
        pair.action_coincident(T=0.0)
