import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from gravtwin import (
    InterferometerConfig,
    ParticleSpecies,
    PerturbativeRegimeWarning,
    UnitSystem,
    ValidationError,
    correction,
    cow_neutron_preset,
    enumerate_path_pairs,
    harmonic_coefficient_diff,
    pair_enumeration_oracle,
    zeroth_order_probability,
)

HBAR_SI = 1.054571817e-34

# Frozen from an independent 40-digit decimal evaluation of the closed
# forms at the neutron-preset geometry (m = 1.675e-27 kg, R = 1e-15 m,
# L = 0.10 m, v = 2.2e3 m/s).
S0_NEUTRON = 1.0213954329545455e-53
S1_NEUTRON = 2.0246442269621128e-66


def dimless_config(delta, g=0.05, L=1.25, v=1.0):
    # default coupling keeps S0 / hbar = 0.6 g T well under the warning gate
    return InterferometerConfig(
        species=ParticleSpecies(mass=1.0, radius=1.0),
        L=L, v=v, delta=delta,
        units=UnitSystem.dimensionless(g=g),
    )


def test_path_pair_enumeration():
    pairs = enumerate_path_pairs()
    assert len(pairs) == 4
    kinds = [p.kind for p in pairs]
    assert kinds.count("coincident") == 2
    assert kinds.count("separating") == 2
    for p in pairs:
        if p.kind == "coincident":
            assert p.physical_arm == p.hidden_arm
        else:
            assert p.physical_arm != p.hidden_arm


@pytest.mark.parametrize(
    "delta,expected",
    [
        (0.0, 1.0),
        (math.pi, 0.0),            # hbar = 1
        (0.5 * math.pi, 0.5),
        (2.0 * math.pi, 1.0),
    ],
)
def test_fringe_values(delta, expected):
    cfg = dimless_config(delta)
    np.testing.assert_allclose(zeroth_order_probability(cfg), expected, atol=1e-15)


def test_complementary_ports_sum_to_one():
    for delta in np.linspace(0.0, 4.0 * math.pi, 57):
        p = zeroth_order_probability(dimless_config(float(delta)))
        q = zeroth_order_probability(dimless_config(float(delta) + math.pi))
        assert abs(p + q - 1.0) <= 1e-15


def test_correction_purely_imaginary():
    for delta in np.linspace(0.0, 4.0 * math.pi, 23):
        res = correction(dimless_config(float(delta)))
        assert res.Aa_star.real == 0.0
        assert res.prob_correction == 0.0


def test_correction_actions_frozen_values():
    res = correction(replace(cow_neutron_preset(), delta=0.3e-34))
    np.testing.assert_allclose(res.S_G0, S0_NEUTRON, rtol=1e-12)
    np.testing.assert_allclose(res.S_G1, S1_NEUTRON, rtol=1e-12)


def test_actions_nonnegative_on_sweep():
    for v in (0.3, 1.0, 4.0):
        for L in (0.5, 1.25, 3.0):
            res = correction(dimless_config(0.7, g=0.005, L=L, v=v))
            assert res.S_G0 >= 0.0
            assert res.S_G1 >= 0.0


def test_zeroth_amplitude_matches_fringe():
    for delta in np.linspace(0.0, 2.0 * math.pi, 17):
        res = correction(dimless_config(float(delta)))
        np.testing.assert_allclose(
            abs(res.A) ** 2, zeroth_order_probability(dimless_config(float(delta))),
            atol=1e-15,
        )


def test_amplitude_product_consistent():
    for delta in (0.0, 0.4, 1.1, 2.9, 5.3):
        res = correction(dimless_config(delta))
        np.testing.assert_allclose(
            res.A * np.conj(res.a), res.Aa_star, rtol=1e-12, atol=1e-300
        )


def test_zero_coupling_correction_vanishes():
    res = correction(dimless_config(0.8, g=0.0))
    assert res.S_G0 == 0.0 and res.S_G1 == 0.0
    assert res.a == 0.0
    assert res.Aa_star == 0.0
    assert res.prob_correction == 0.0
    # the coupling-free fringe survives
    np.testing.assert_allclose(abs(res.A) ** 2, res.prob_zeroth, atol=1e-15)


def test_periodicity_in_delta():
    period = 2.0 * math.pi  # hbar = 1
    for delta in (0.3, 1.7):
        a = correction(dimless_config(delta))
        b = correction(dimless_config(delta + period))
        np.testing.assert_allclose(b.Aa_star.imag, a.Aa_star.imag, rtol=1e-12)
        np.testing.assert_allclose(b.prob_zeroth, a.prob_zeroth, rtol=1e-12)


def test_oracle_matches_closed_form():
    for delta in np.linspace(0.0, 2.0 * math.pi, 29):
        cfg = dimless_config(float(delta))
        res = correction(cfg)
        orc = pair_enumeration_oracle(cfg)
        np.testing.assert_allclose(orc.Aa_star.imag, res.Aa_star.imag, rtol=1e-13, atol=1e-18)
        assert orc.Aa_star.real == 0.0
        np.testing.assert_allclose(orc.prob_zeroth, res.prob_zeroth, atol=1e-14)


def test_oracle_matches_at_neutron_scale():
    cfg = replace(cow_neutron_preset(), delta=0.7e-34)
    res = correction(cfg)
    orc = pair_enumeration_oracle(cfg)
    np.testing.assert_allclose(orc.Aa_star.imag, res.Aa_star.imag, rtol=1e-13)


def test_harmonic_coefficients_agree():
    diff = harmonic_coefficient_diff(dimless_config(0.0))
    assert diff.max_abs_difference < 1e-12
    # closed-form coefficient pattern: (1/2 + r, 1 + r, 1/2) with r = S1/S0
    r = diff.closed_form["cos_2delta"]
    np.testing.assert_allclose(r, 0.5, atol=1e-14)
    np.testing.assert_allclose(
        diff.closed_form["cos_delta"] - diff.closed_form["const"], 0.5, atol=1e-14
    )


def test_neutron_preset_geometry():
    cfg = cow_neutron_preset()
    assert cfg.L == 0.10
    assert cfg.v == 2.2e3
    assert cfg.delta == 0.0
    assert cfg.units.mode == "SI"
    np.testing.assert_allclose(cfg.T, 2.0 * 0.10 / 2.2e3, rtol=1e-15)
    # deep perturbative regime: coupling action orders of magnitude under hbar
    res = correction(cfg)
    assert res.S_G0 / HBAR_SI < 1e-15


def test_perturbative_warning_threshold():
    # large coupling pushes S0 / hbar past 0.1: warn, do not reject
    cfg = dimless_config(0.5, g=1.0, L=0.5, v=1.0)   # S0 = 0.6 T = 0.6
    with pytest.warns(PerturbativeRegimeWarning):
        res = correction(cfg)
    assert res.prob_correction == 0.0

    small = dimless_config(0.5, g=0.01, L=0.5, v=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        correction(small)


def test_config_validation():
    with pytest.raises(ValidationError):
        dimless_config(0.0, L=-1.0)
    with pytest.raises(ValidationError):
        dimless_config(0.0, v=0.0)
    with pytest.raises(ValidationError):
        dimless_config(math.inf)


@pytest.mark.parametrize("delta", [1e274, -1e274])
def test_config_rejects_delta_whose_phase_overflows(delta):
    # correction takes cos(2 delta / hbar); with hbar_SI that overflows near 9.48e273 J s.
    with pytest.raises(ValidationError, match="2 delta / hbar"):
        replace(cow_neutron_preset(), delta=delta)
