import math

import numpy as np
import pytest

from gravtwin import (
    ExternalPotential,
    Grid1D,
    MetaState,
    ParticleSpecies,
    UnitSystem,
    ValidationError,
    gaussian_product_metastate,
    gaussian_wavepacket,
    make_grid,
    product_metastate,
    to_dimensionless,
)
from gravtwin.core import QUANTITY_KINDS

NEUTRON_MASS = 1.675e-27
NEUTRON_RADIUS = 1e-15
HBAR = 1.054571817e-34

# Independently computed: g = G m^3 l / hbar^2, tau = m l^2 / hbar for a
# neutron-mass species at length unit 1e-15 m (40-digit decimal arithmetic).
NEUTRON_G_DIMLESS = 2.8203164217474422e-38
NEUTRON_TAU = 1.5883223626864665e-23


def test_si_constants():
    u = UnitSystem.si()
    assert u.hbar == HBAR
    assert u.G == 6.67430e-11
    assert u.mode == "SI"
    assert u.length_unit == 1.0 and u.mass_unit == 1.0 and u.time_unit == 1.0


def test_dimensionless_coupling_value():
    sp = ParticleSpecies(mass=NEUTRON_MASS, radius=NEUTRON_RADIUS)
    u = to_dimensionless(sp, UnitSystem.si())
    assert u.hbar == 1.0
    np.testing.assert_allclose(u.G, NEUTRON_G_DIMLESS, rtol=1e-12)
    np.testing.assert_allclose(u.time_unit, NEUTRON_TAU, rtol=1e-12)
    assert u.length_unit == NEUTRON_RADIUS
    assert u.mass_unit == NEUTRON_MASS
    code = u.species_code(sp)
    assert code.mass == 1.0
    assert code.radius == 1.0


def test_dimensionless_custom_length_unit():
    sp = ParticleSpecies(mass=NEUTRON_MASS, radius=NEUTRON_RADIUS)
    u = to_dimensionless(sp, UnitSystem.si(), length_unit=2e-15)
    np.testing.assert_allclose(u.G, 2.0 * NEUTRON_G_DIMLESS, rtol=1e-12)
    assert u.species_code(sp).radius == 0.5


@pytest.mark.parametrize("kind", sorted(QUANTITY_KINDS))
def test_unit_round_trip(kind):
    sp = ParticleSpecies(mass=NEUTRON_MASS, radius=NEUTRON_RADIUS)
    u = to_dimensionless(sp, UnitSystem.si())
    si_value = 3.7e-20
    code = u.to_code(si_value, kind)
    np.testing.assert_allclose(u.from_code(code, kind), si_value, rtol=1e-14)


def test_derived_scales_consistent():
    # velocity = length/time, energy = mass length^2 / time^2, action = energy*time
    sp = ParticleSpecies(mass=NEUTRON_MASS, radius=NEUTRON_RADIUS)
    u = to_dimensionless(sp, UnitSystem.si())
    l, t, m = u.scale("length"), u.scale("time"), u.scale("mass")
    np.testing.assert_allclose(u.scale("velocity"), l / t, rtol=1e-14)
    np.testing.assert_allclose(u.scale("momentum"), m * l / t, rtol=1e-14)
    np.testing.assert_allclose(u.scale("energy"), m * l**2 / t**2, rtol=1e-14)
    np.testing.assert_allclose(u.scale("action"), m * l**2 / t, rtol=1e-14)
    # action unit is hbar itself by construction of the time unit
    np.testing.assert_allclose(u.scale("action"), HBAR, rtol=1e-14)


def test_unknown_kind_rejected():
    u = UnitSystem.si()
    with pytest.raises(ValidationError):
        u.scale("charge")


def test_dimensionless_requires_unit_hbar():
    with pytest.raises(ValidationError):
        UnitSystem(hbar=2.0, G=1.0, mode="dimensionless")


def test_species_validation():
    with pytest.raises(ValidationError):
        ParticleSpecies(mass=-1.0, radius=1.0)
    with pytest.raises(ValidationError):
        ParticleSpecies(mass=1.0, radius=0.0)
    with pytest.raises(ValidationError):
        ParticleSpecies(mass=math.nan, radius=1.0)


def test_grid_spacing():
    g = make_grid(-5.0, 5.0, 16)
    assert g.dx == 0.625
    assert g.n == 16
    assert g.span == 10.0
    assert g.x[0] == -5.0
    # periodic grid omits the right endpoint
    np.testing.assert_allclose(g.x[-1], 5.0 - 0.625, rtol=1e-15)


def test_grid_momentum_spacing():
    g = make_grid(-5.0, 5.0, 64)
    k = np.sort(g.momentum_grid)
    dk = np.diff(k)
    np.testing.assert_allclose(dk, 2.0 * math.pi / 10.0, rtol=1e-13)
    assert np.max(np.abs(g.momentum_grid)) == math.pi / g.dx


def test_grid_n_validation():
    for bad in (0, 4, 12, 100, 513):
        with pytest.raises(ValidationError):
            make_grid(-1.0, 1.0, bad)
    with pytest.raises(ValidationError):
        make_grid(1.0, -1.0, 16)


def test_grid_arrays_read_only():
    g = make_grid(-1.0, 1.0, 16)
    with pytest.raises(ValueError):
        g.x[0] = 99.0


def test_gaussian_packet_norm_and_moments():
    g = make_grid(-20.0, 20.0, 512)
    psi = gaussian_wavepacket(g, center=1.5, width=0.8, momentum=2.0)
    prob = np.abs(psi) ** 2 * g.dx
    np.testing.assert_allclose(np.sum(prob), 1.0, atol=1e-12)
    mean = np.sum(g.x * prob)
    var = np.sum((g.x - mean) ** 2 * prob)
    np.testing.assert_allclose(mean, 1.5, atol=1e-10)
    np.testing.assert_allclose(var, 0.64, rtol=1e-10)


def test_gaussian_packet_momentum_mean():
    g = make_grid(-20.0, 20.0, 512)
    p0 = 3.0
    psi = gaussian_wavepacket(g, center=0.0, width=0.7, momentum=p0)
    phi = np.fft.fft(psi)
    w = np.abs(phi) ** 2
    k_mean = np.sum(g.momentum_grid * w) / np.sum(w)
    np.testing.assert_allclose(k_mean, p0, rtol=1e-10)


def test_gaussian_width_resolution_guard():
    g = make_grid(-10.0, 10.0, 32)  # dx = 0.625
    with pytest.raises(ValidationError):
        gaussian_wavepacket(g, center=0.0, width=1.0, momentum=0.0)


def test_gaussian_tail_guard():
    # packet centered near the edge leaks mass out of the box interior
    g = make_grid(-10.0, 10.0, 256)
    with pytest.raises(ValidationError):
        gaussian_wavepacket(g, center=9.0, width=1.0, momentum=0.0)


def test_product_state_symmetry_exact():
    g = make_grid(-10.0, 10.0, 128)
    st = gaussian_product_metastate(g, center=0.3, width=0.9, momentum=1.0)
    assert st.exchange_asymmetry() == 0.0
    np.testing.assert_allclose(st.norm(), 1.0, atol=1e-12)
    assert st.time == 0.0


def test_product_state_normalizes_input():
    g = make_grid(-10.0, 10.0, 128)
    psi = 5.0 * gaussian_wavepacket(g, center=0.0, width=0.8, momentum=0.0)
    st = product_metastate(g, psi)
    np.testing.assert_allclose(st.norm(), 1.0, atol=1e-12)


def test_metastate_amplitudes_read_only():
    g = make_grid(-10.0, 10.0, 64)
    st = gaussian_product_metastate(g, center=0.0, width=0.9, momentum=0.0)
    with pytest.raises(ValueError):
        st.amplitudes[0, 0] = 0.0


def test_metastate_shape_validation():
    g = make_grid(-10.0, 10.0, 64)
    with pytest.raises(ValidationError):
        MetaState(grid=g, amplitudes=np.zeros((32, 32), dtype=complex), time=0.0)


def test_external_potential_kinds():
    g = make_grid(-4.0, 4.0, 64)
    sp = ParticleSpecies(mass=2.0, radius=1.0)
    null = ExternalPotential.null()
    lin = ExternalPotential.uniform_field(slope=3.0)
    harm = ExternalPotential.harmonic(omega=1.5)

    assert np.all(null.sample(g.x, sp) == 0.0)
    np.testing.assert_allclose(lin.sample(g.x, sp), 3.0 * g.x, rtol=1e-15)
    np.testing.assert_allclose(harm.sample(g.x, sp), 0.5 * 2.0 * 1.5**2 * g.x**2, rtol=1e-15)
    with pytest.raises(ValidationError):
        ExternalPotential(kind="tabulated")

    # V(x) + V(x~) = 2 V(X) + [V(r) + V(-r)] / 4, the split the separated engine steps
    x, xt = np.meshgrid(g.x, g.x, indexing="ij")
    for pot in (null, lin, harm):
        lhs = pot.sample(x, sp) + pot.sample(xt, sp)
        rhs = 2.0 * pot.sample(0.5 * (x + xt), sp) + 0.25 * (pot.sample(x - xt, sp) + pot.sample(xt - x, sp))
        np.testing.assert_allclose(lhs, rhs, rtol=1e-14, atol=1e-13)
