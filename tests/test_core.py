import math

import numpy as np
import pytest

from gravtwin import (
    Grid1D,
    MetaState,
    ParticleSpecies,
    UnitSystem,
    ValidationError,
    gaussian_product_metastate,
    gaussian_wavepacket,
    product_metastate,
)

HBAR = 1.054571817e-34


def test_si_constants():
    u = UnitSystem.si()
    assert u.hbar == HBAR
    assert u.G == 6.67430e-11


def test_species_validation():
    with pytest.raises(ValidationError):
        ParticleSpecies(mass=-1.0, radius=1.0)
    with pytest.raises(ValidationError):
        ParticleSpecies(mass=1.0, radius=0.0)
    with pytest.raises(ValidationError):
        ParticleSpecies(mass=math.nan, radius=1.0)


def test_grid_spacing():
    g = Grid1D(-5.0, 5.0, 16)
    assert g.dx == 0.625
    assert g.n == 16
    assert g.span == 10.0
    assert g.x[0] == -5.0
    # periodic grid omits the right endpoint
    np.testing.assert_allclose(g.x[-1], 5.0 - 0.625, rtol=1e-15)


def test_grid_momentum_spacing():
    g = Grid1D(-5.0, 5.0, 64)
    k = np.sort(g.momentum_grid)
    dk = np.diff(k)
    np.testing.assert_allclose(dk, 2.0 * math.pi / 10.0, rtol=1e-13)
    assert np.max(np.abs(g.momentum_grid)) == math.pi / g.dx


def test_grid_n_validation():
    for bad in (0, 4, 12, 100, 513):
        with pytest.raises(ValidationError):
            Grid1D(-1.0, 1.0, bad)
    with pytest.raises(ValidationError):
        Grid1D(1.0, -1.0, 16)


def test_grid_is_its_three_inputs():
    g = Grid1D(-1.0, 1.0, 16)
    dx = (1.0 - -1.0) / 16
    assert g.dx == dx
    assert g.x.tobytes() == (-1.0 + dx * np.arange(16)).tobytes()
    assert g.momentum_grid.tobytes() == (2.0 * math.pi * np.fft.fftfreq(16, d=dx)).tobytes()
    twin = Grid1D(-1.0, 1.0, 16)
    assert twin == g and hash(twin) == hash(g)
    assert Grid1D(-1.0, 1.0, 32) != g
    for derived in ({"dx": 0.125}, {"x": np.zeros(16)}, {"momentum_grid": np.zeros(16)}):
        with pytest.raises(TypeError):
            Grid1D(-1.0, 1.0, 16, **derived)
    for x_min, x_max in ((0.0, 0.0), (-math.inf, 1.0), (-1.0, math.nan)):
        with pytest.raises(ValidationError):
            Grid1D(x_min, x_max, 16)


def test_grid_arrays_read_only():
    g = Grid1D(-1.0, 1.0, 16)
    with pytest.raises(ValueError):
        g.x[0] = 99.0


def test_gaussian_packet_norm_and_moments():
    g = Grid1D(-20.0, 20.0, 512)
    psi = gaussian_wavepacket(g, center=1.5, width=0.8, momentum=2.0)
    prob = np.abs(psi) ** 2 * g.dx
    np.testing.assert_allclose(np.sum(prob), 1.0, atol=1e-12)
    mean = np.sum(g.x * prob)
    var = np.sum((g.x - mean) ** 2 * prob)
    np.testing.assert_allclose(mean, 1.5, atol=1e-10)
    np.testing.assert_allclose(var, 0.64, rtol=1e-10)


def test_gaussian_packet_momentum_mean():
    g = Grid1D(-20.0, 20.0, 512)
    p0 = 3.0
    psi = gaussian_wavepacket(g, center=0.0, width=0.7, momentum=p0)
    phi = np.fft.fft(psi)
    w = np.abs(phi) ** 2
    k_mean = np.sum(g.momentum_grid * w) / np.sum(w)
    np.testing.assert_allclose(k_mean, p0, rtol=1e-10)


def test_gaussian_width_resolution_guard():
    g = Grid1D(-10.0, 10.0, 32)  # dx = 0.625
    with pytest.raises(ValidationError):
        gaussian_wavepacket(g, center=0.0, width=1.0, momentum=0.0)


def test_gaussian_tail_guard():
    # packet centered near the edge leaks mass out of the box interior
    g = Grid1D(-10.0, 10.0, 256)
    with pytest.raises(ValidationError):
        gaussian_wavepacket(g, center=9.0, width=1.0, momentum=0.0)


def test_product_state_symmetry_exact():
    g = Grid1D(-10.0, 10.0, 128)
    st = gaussian_product_metastate(g, center=0.3, width=0.9, momentum=1.0)
    assert st.exchange_asymmetry() == 0.0
    np.testing.assert_allclose(st.norm(), 1.0, atol=1e-12)
    assert st.time == 0.0


def test_product_state_normalizes_input():
    g = Grid1D(-10.0, 10.0, 128)
    psi = 5.0 * gaussian_wavepacket(g, center=0.0, width=0.8, momentum=0.0)
    st = product_metastate(g, psi)
    np.testing.assert_allclose(st.norm(), 1.0, atol=1e-12)


def test_metastate_amplitudes_read_only():
    g = Grid1D(-10.0, 10.0, 64)
    st = gaussian_product_metastate(g, center=0.0, width=0.9, momentum=0.0)
    with pytest.raises(ValueError):
        st.amplitudes[0, 0] = 0.0


def test_metastate_shape_validation():
    g = Grid1D(-10.0, 10.0, 64)
    with pytest.raises(ValidationError):
        MetaState(grid=g, amplitudes=np.zeros((32, 32), dtype=complex), time=0.0)
