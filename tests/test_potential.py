import math

import numpy as np
import pytest
from scipy.integrate import quad

from gravtwin import (
    Grid1D,
    InterferometerConfig,
    PairPotential,
    ParticleSpecies,
    UnitSystem,
    ValidationError,
)
from gravtwin import potential
from gravtwin.potential import _float_value

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
    g = Grid1D(-4.0, 4.0, 64)
    pair = dimensionless_pair()
    v = pair.evaluate_on_grid(g)
    assert v.shape == (64, 64)
    assert np.array_equal(v, v.T)
    np.testing.assert_allclose(np.diag(v), -0.6, rtol=1e-12)


def test_grid_matrix_matches_pointwise():
    g = Grid1D(-4.0, 4.0, 32)
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


@pytest.mark.parametrize(
    "v, T",
    [(1.0, 1.0), (10.0, 10.0)],  # core only; core and tail (t_half 5 > t_break 0.14)
    ids=["core-only", "tail"],
)
def test_action_zero_coupling(v, T):
    pair = dimensionless_pair(g=0.0)
    act = pair.action_integral_separating(v=v, T=T)
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


# Corners of the benchmark's geometry-scan range, SI units.
SCAN_MASSES = (1e-27, 1e-24)        # kg
SCAN_RADII = (1e-15, 1e-9)          # m
SCAN_ARMS = (0.02, 1.0)             # m
SCAN_SPEEDS = (10**1.5, 10**3.5)    # m/s


@pytest.mark.parametrize("mass", SCAN_MASSES)
@pytest.mark.parametrize("radius", SCAN_RADII)
def test_float_branches_match_evaluate(mass, radius):
    # The quadrature integrand runs on plain floats, evaluate on arrays;
    # both use the same branch formulas.  At these points, the branch
    # point included, the float path must match evaluate bit for bit.
    # Elsewhere in the core numpy's vectorised pow may round r**3 or r**5
    # one ulp away from libm's; the 1e-10 quadrature gate absorbs that.
    pair = PairPotential(ParticleSpecies(mass=mass, radius=radius), UnitSystem.si())
    two_r = 2.0 * radius
    for r in (0.0, two_r * (1.0 - 1e-12), two_r, two_r * (1.0 + 1e-12), 1e6 * radius):
        got = _float_value(r, pair.units.G, mass, radius)
        assert isinstance(got, float)
        assert got == pair.evaluate(r), r


@pytest.mark.parametrize("mass", SCAN_MASSES)
@pytest.mark.parametrize("radius", SCAN_RADII)
@pytest.mark.parametrize("L", SCAN_ARMS)
@pytest.mark.parametrize("v", SCAN_SPEEDS)
def test_quadrature_agrees_at_geometry_scan_corners(mass, radius, L, v):
    # R = 1e-15, L = 1, v = 10^1.5 spans about 15 decades of flight time
    # beyond the branch point, all in the one ln t panel.
    pair = PairPotential(ParticleSpecies(mass=mass, radius=radius), UnitSystem.si())
    T = InterferometerConfig(pair.species, L=L, v=v, delta=0.0, units=pair.units).T
    act = pair.action_integral_separating(v=v, T=T)
    assert act.closed_form > 0.0
    np.testing.assert_allclose(act.quadrature, act.closed_form, rtol=1e-10)


def per_decade_quadrature(pair, v, T):
    """-2 times the integral of V(sqrt(2) v t) over [0, T/2] in t, one panel per decade of the tail.

    An independent oracle for the package's quadrature: adaptive QUADPACK
    at a relative 1e-12, every panel in t and none wider than a decade, so
    neither the rule nor the change of variable is shared with the code
    under test.
    """
    G, m, R = pair.units.G, pair.species.mass, pair.species.radius
    speed = math.sqrt(2.0) * v
    t_half = T / 2.0
    t_break = 2.0 * R / speed
    edges = [0.0, min(t_break, t_half)]
    if t_half > t_break:
        ratio = t_half / t_break
        decades = max(1, math.ceil(math.log10(ratio)))
        edges.extend(t_break * ratio ** (j / decades) for j in range(1, decades + 1))
    closed = pair.action_integral_separating(v, T).closed_form
    total = 0.0
    for a, b in zip(edges, edges[1:]):
        if b > a:
            total += quad(
                lambda t: _float_value(speed * t, G, m, R), a, b,
                limit=200, epsrel=1e-12, epsabs=1e-14 * abs(closed),
            )[0]
    return -2.0 * total


def scan_corner(mass, radius, L, v):
    pair = PairPotential(ParticleSpecies(mass=mass, radius=radius), UnitSystem.si())
    return pair, v, 2.0 * L / v


# (pair, v, T) per geometry: the geometry-scan corners, the neutron bench,
# a flight that never leaves the core, and the two acceptance families of
# criterion 4 (dimensionless speed sweep, neutron speed sweep).
SCAN_CORNERS = [
    scan_corner(mass, radius, L, v)
    for mass in SCAN_MASSES for radius in SCAN_RADII for L in SCAN_ARMS for v in SCAN_SPEEDS
]
NEUTRON_BENCH = (neutron_pair()[1], 2.2e3, 2 * 0.10 / 2.2e3)
CORE_ONLY = (dimensionless_pair(), 1.0, 1.0)
FIFTEEN_DECADES = scan_corner(1e-27, 1e-15, 1.0, 10**1.5)
DIMENSIONLESS_FAMILY = [(dimensionless_pair(), float(v), 1.0) for v in np.geomspace(0.02, 40.0, 50)]
NEUTRON_FAMILY = [
    (neutron_pair()[1], float(v), 2 * 0.10 / float(v)) for v in np.geomspace(5e2, 5e3, 50)
]


@pytest.mark.parametrize(
    "geometries",
    [SCAN_CORNERS, [NEUTRON_BENCH], [CORE_ONLY], DIMENSIONLESS_FAMILY, NEUTRON_FAMILY],
    ids=["scan-corners", "neutron", "core-regime", "criterion-4-dimensionless", "criterion-4-neutron"],
)
def test_quadrature_matches_the_per_decade_oracle(geometries):
    for pair, v, T in geometries:
        act = pair.action_integral_separating(v=v, T=T)
        oracle = per_decade_quadrature(pair, v, T)
        assert abs(act.quadrature - oracle) <= 1e-12 * abs(oracle), (v, T)


def test_quadrature_evaluates_one_or_two_panels(monkeypatch):
    # One core panel in t and one tail panel in ln t, whatever the span:
    # each panel costs one integrand evaluation per node of the rule.
    calls = []

    def counted(*args):
        calls.append(None)
        return _float_value(*args)

    monkeypatch.setattr(potential, "_float_value", counted)
    nodes = len(potential._GAUSS_NODES)
    for pair, v, T in [*SCAN_CORNERS, NEUTRON_BENCH, CORE_ONLY, FIFTEEN_DECADES]:
        calls.clear()
        pair.action_integral_separating(v=v, T=T)
        panels = 2 if T / 2.0 > 2.0 * pair.species.radius / (math.sqrt(2.0) * v) else 1
        assert len(calls) == panels * nodes, (v, T)


def off_everywhere(exact, radius):
    return lambda self, s: (1.0 + 1e-9) * exact(self, s)


def off_on_the_tail(exact, radius):
    return lambda self, s: (1.0 + 1e-9) * exact(self, s) if s > 2.0 * radius else exact(self, s)


@pytest.mark.parametrize(
    "mutation, geometry",
    [
        (off_everywhere, NEUTRON_BENCH),
        (off_everywhere, CORE_ONLY),  # no tail panel
        (off_everywhere, FIFTEEN_DECADES),
        (off_on_the_tail, NEUTRON_BENCH),
        (off_on_the_tail, FIFTEEN_DECADES),
    ],
    ids=["neutron", "core-regime", "fifteen-decades", "tail-only-neutron", "tail-only-fifteen-decades"],
)
def test_quadrature_catches_a_wrong_closed_form(monkeypatch, mutation, geometry):
    # A closed form off by 1e-9 relative must trip the 1e-10 gate.
    pair, v, T = geometry
    monkeypatch.setattr(
        PairPotential, "_antiderivative", mutation(PairPotential._antiderivative, pair.species.radius)
    )
    with pytest.raises(ArithmeticError, match="disagree"):
        pair.action_integral_separating(v=v, T=T)


def scaled(exact):
    return lambda *args: (1.0 + 1e-9) * exact(*args)


@pytest.mark.parametrize(
    "branch, geometry",
    [
        ("_float_value", NEUTRON_BENCH),
        ("_core_branch", CORE_ONLY),  # no tail panel
        ("_float_value", FIFTEEN_DECADES),
        ("_tail_branch", NEUTRON_BENCH),
        ("_tail_branch", FIFTEEN_DECADES),
    ],
    ids=["neutron", "core-regime", "fifteen-decades", "tail-only-neutron", "tail-only-fifteen-decades"],
)
def test_quadrature_catches_a_wrong_integrand(monkeypatch, branch, geometry):
    # The mirror of the test above: an integrand off by 1e-9 relative, the
    # closed form exact, must trip the 1e-10 gate too.  The closed form
    # reads none of these functions.
    pair, v, T = geometry
    monkeypatch.setattr(potential, branch, scaled(getattr(potential, branch)))
    with pytest.raises(ArithmeticError, match="disagree"):
        pair.action_integral_separating(v=v, T=T)
