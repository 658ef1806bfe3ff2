import math

import numpy as np
import pytest
import scipy.fft as sfft

from gravtwin import (
    CFLViolation,
    EvolutionConfig,
    ExternalPotential,
    MetaState,
    NumericalAbort,
    PairPotential,
    ParticleSpecies,
    SeparatedState,
    UnitSystem,
    ValidationError,
    dyson_first_order,
    evolve,
    first_order_position_density,
    gaussian_product_metastate,
    gaussian_wavepacket,
    make_grid,
    product_metastate,
    separated_product_state,
)

UNIT = ParticleSpecies(mass=1.0, radius=1.0)


def setup(g=0.0, n=128, half_span=8.0):
    units = UnitSystem.dimensionless(g=g)
    grid = make_grid(-half_span, half_span, n)
    return units, grid, PairPotential(UNIT, units)


def position_density(state):
    return np.sum(np.abs(state.amplitudes) ** 2, axis=1) * state.grid.dx


def moments(state):
    pr = position_density(state) * state.grid.dx
    mean = float(np.sum(state.grid.x * pr))
    var = float(np.sum((state.grid.x - mean) ** 2 * pr))
    return mean, var


def test_config_validation():
    with pytest.raises(ValidationError):
        EvolutionConfig(dt=0.0, steps=10)
    with pytest.raises(ValidationError):
        EvolutionConfig(dt=1e-3, steps=0)
    with pytest.raises(ValidationError):
        EvolutionConfig(dt=1e-3, steps=10, record_every=0)


def test_cfl_guard():
    units, grid, pair = setup()
    st = gaussian_product_metastate(grid, 0.0, 0.6, 0.0)
    # dx = 0.125: stability needs dt < pi hbar / (4 E_kin_max) ~ 2.49e-3
    cfg = EvolutionConfig(dt=5e-3, steps=10)
    with pytest.raises(CFLViolation) as err:
        evolve(st, ExternalPotential.null(), pair, cfg)
    assert "largest stable dt" in str(err.value)
    # just inside the bound is accepted
    evolve(st, ExternalPotential.null(), pair, EvolutionConfig(dt=2.4e-3, steps=1))


def test_requires_normalized_input():
    units, grid, pair = setup()
    st = gaussian_product_metastate(grid, 0.0, 0.6, 0.0)
    bad = MetaState(grid=grid, amplitudes=1.5 * st.amplitudes)
    with pytest.raises(ValidationError):
        evolve(bad, ExternalPotential.null(), pair, EvolutionConfig(dt=1e-3, steps=1))


def test_free_norm_conservation():
    units, grid, pair = setup()
    st = gaussian_product_metastate(grid, 0.0, 0.6, 1.0)
    rec = evolve(st, ExternalPotential.null(), pair,
                 EvolutionConfig(dt=1e-3, steps=300, record_every=50))
    assert np.max(np.abs(rec.norms - 1.0)) < 1e-12


def test_free_spreading_law():
    """Variance growth of a free packet against the closed form."""
    units, grid, pair = setup(n=256, half_span=20.0)
    sigma0 = 0.5
    st = gaussian_product_metastate(grid, 0.0, sigma0, 0.0)
    t_double = math.sqrt(3.0) * 2.0 * sigma0**2  # sigma doubles here
    steps = 500
    cfg = EvolutionConfig(dt=t_double / steps, steps=steps, record_every=50)
    rec = evolve(st, ExternalPotential.null(), pair, cfg,
                 observer=lambda s: {"var": moments(s)[1]})
    var = np.array([o["var"] for o in rec.reduced_observables])
    expected = sigma0**2 * (1.0 + (rec.times / (2.0 * sigma0**2)) ** 2)
    np.testing.assert_allclose(var, expected, rtol=1e-4)
    np.testing.assert_allclose(var[-1], 4.0 * sigma0**2, rtol=1e-4)


def test_harmonic_center_oscillation():
    """Ehrenfest check: <x>(t) = x0 cos(t) for a displaced packet, omega = 1, on either engine."""
    units, grid, pair = setup(n=128, half_span=10.0)
    width = 1.0 / math.sqrt(2.0)
    period = 2.0 * math.pi
    steps = 2000
    cfg = EvolutionConfig(dt=period / steps, steps=steps, record_every=100)
    for st in (gaussian_product_metastate(grid, 1.0, width, 0.0),
               separated_product_state(grid, (1.0,), width, 0.0)):
        rec = evolve(st, ExternalPotential.harmonic(omega=1.0), pair, cfg,
                     observer=lambda s: {"mean": moments(s)[0]})
        mean = np.array([o["mean"] for o in rec.reduced_observables])
        np.testing.assert_allclose(mean, np.cos(rec.times), atol=1e-4)
        np.testing.assert_allclose(mean[-1], 1.0, atol=1e-4)


def test_exchange_symmetry_preserved():
    units, grid, pair = setup(g=1.0)
    st = gaussian_product_metastate(grid, 0.5, 0.7, 0.8)
    rec = evolve(st, ExternalPotential.harmonic(omega=0.5), pair,
                 EvolutionConfig(dt=1e-3, steps=400))
    assert rec.final_state.exchange_asymmetry() < 1e-10


def test_time_reversal_fidelity():
    units, grid, pair = setup(g=1.0)
    st = gaussian_product_metastate(grid, 0.0, 0.7, 1.0)
    cfg = EvolutionConfig(dt=1e-3, steps=300)
    fwd = evolve(st, ExternalPotential.null(), pair, cfg).final_state
    back_in = MetaState(grid=grid, amplitudes=np.conj(fwd.amplitudes))
    back = evolve(back_in, ExternalPotential.null(), pair, cfg).final_state
    overlap = np.vdot(st.amplitudes, np.conj(back.amplitudes)) * grid.dx**2
    assert abs(overlap) > 1.0 - 1e-8


def test_splitting_order_is_two():
    """Error against a dt/4 reference: ratio e1/e2 pins the order.

    With errors C dt^p against the dt/4 run, e1/e2 = (4^p - 1)/(4^p/2^p - 1),
    so p = log2(e1/e2 - 1).  Strang should land in [1.8, 2.2] on either engine.
    """
    units, grid, pair = setup(g=0.8)
    pot = ExternalPotential.harmonic(omega=1.0)
    for st in (gaussian_product_metastate(grid, 0.5, 0.7, 0.0),
               separated_product_state(grid, (0.5,), 0.7, 0.0)):
        finals = {}
        for div in (1, 2, 4):
            cfg = EvolutionConfig(dt=1e-3 / div, steps=100 * div)
            finals[div] = evolve(st, pot, pair, cfg).final_state.amplitudes
        e1 = np.linalg.norm(finals[1] - finals[4])
        e2 = np.linalg.norm(finals[2] - finals[4])
        p = math.log2(e1 / e2 - 1.0)
        assert 1.8 < p < 2.2


def test_record_points():
    units, grid, pair = setup()
    st = gaussian_product_metastate(grid, 0.0, 0.6, 0.0)
    rec = evolve(st, ExternalPotential.null(), pair,
                 EvolutionConfig(dt=1e-3, steps=95, record_every=30))
    np.testing.assert_allclose(rec.times, np.array([0, 30, 60, 90, 95]) * 1e-3, rtol=1e-12)
    assert rec.final_state.time == rec.times[-1]
    assert rec.reduced_observables is None


def test_nan_abort_with_diagnostic():
    units, grid, pair = setup()
    st = gaussian_product_metastate(grid, 0.0, 0.6, 0.0)
    amps = st.amplitudes
    amps.setflags(write=True)
    amps[0, 0] = np.nan  # simulate an upstream blow-up
    with pytest.raises(NumericalAbort) as err:
        evolve(st, ExternalPotential.null(), pair, EvolutionConfig(dt=1e-3, steps=5))
    assert "step" in str(err.value)


def test_dyson_zero_coupling_kills_correction():
    units, grid, pair = setup(g=0.0)
    st = gaussian_product_metastate(grid, 0.0, 0.7, 0.0)
    psi0, psi1 = dyson_first_order(st, ExternalPotential.null(), pair,
                                   EvolutionConfig(dt=1e-3, steps=50))
    assert np.all(psi1.amplitudes == 0.0)
    np.testing.assert_allclose(psi0.norm(), 1.0, atol=1e-12)


def test_dyson_zeroth_channel_matches_free_run():
    # psi0 must be the g = 0 discretization exactly, not merely close, on either engine
    units, grid, pair = setup(g=0.5)
    _, _, free_pair = setup(g=0.0)
    cfg = EvolutionConfig(dt=1e-3, steps=100)
    starts = (
        (gaussian_product_metastate(grid, 0.0, 0.7, 0.5), ExternalPotential.harmonic(omega=1.0)),
        (separated_product_state(grid, (-1.5, 1.5), 0.7, 0.5), ExternalPotential.null()),
        (separated_product_state(grid, (-1.5, 1.5), 0.7, 0.5), ExternalPotential.harmonic(omega=1.0)),
    )
    for st, pot in starts:
        psi0, _ = dyson_first_order(st, pot, pair, cfg)
        ref = evolve(st, pot, free_pair, cfg).final_state
        assert np.max(np.abs(psi0.amplitudes - ref.amplitudes)) < 1e-12


def test_dyson_residual_quarter_scaling():
    """Halving g must quarter the first-order residual (second-order remainder)."""
    st = None
    residuals = {}
    for g in (0.5, 0.25):
        units, grid, pair = setup(g=g)
        if st is None:
            st = gaussian_product_metastate(grid, 0.0, 0.7, 0.0)
        cfg = EvolutionConfig(dt=5e-4, steps=200)
        pot = ExternalPotential.harmonic(omega=1.0)
        psi0, psi1 = dyson_first_order(st, pot, pair, cfg)
        full = evolve(st, pot, pair, cfg).final_state
        residuals[g] = np.linalg.norm(
            full.amplitudes - psi0.amplitudes - psi1.amplitudes
        )
    ratio = residuals[0.5] / residuals[0.25]
    assert 3.5 < ratio < 4.5


def dyson_midpoint_reference(state0, pot_ext, pair, cfg):
    """Dyson channels with the insertion at each step's kinetic midpoint.

    The first-order engine's former loop, four transform pairs per step;
    it differs from the derivative of the Strang step at order g dt^2.
    """
    grid = state0.grid
    hbar = pair.units.hbar
    v_ext = pot_ext.sample(grid.x, pair.species)
    v_pair = pair.evaluate_on_grid(grid)
    k2 = grid.momentum_grid**2
    k_diag = k2[:, None] + k2[None, :]
    d0 = np.exp(-0.5j * cfg.dt / hbar * (v_ext[:, None] + v_ext[None, :]))
    half_k = np.exp(-0.25j * hbar * cfg.dt / pair.species.mass * k_diag)

    def half_kin(z):
        return sfft.ifft2(sfft.fft2(z) * half_k)

    phi = np.array(state0.amplitudes)
    chi = np.zeros_like(phi)
    for _ in range(cfg.steps):
        phi_mid = half_kin(d0 * phi)
        chi_mid = half_kin(d0 * chi)
        chi_mid += (-1j * cfg.dt / hbar) * v_pair * phi_mid
        phi = d0 * half_kin(phi_mid)
        chi = d0 * half_kin(chi_mid)
    return phi, chi


EXTERNALS = {
    "none": (ExternalPotential.null(), 0.0, 0.0),
    "harmonic": (ExternalPotential.harmonic(omega=1.0), 0.3, 0.5),
    "uniform-field": (ExternalPotential.uniform_field(slope=0.5), -0.5, 1.0),
}


@pytest.mark.parametrize(
    "kind", sorted(EXTERNALS) + ["separated", "separated-harmonic", "separated-uniform-field"]
)
def test_dyson_is_derivative_of_strang_step(kind):
    """psi1 against a Richardson forward difference in g of evolve, on either engine."""
    g = 0.5
    units, grid, pair = setup(g=g)
    if kind.startswith("separated"):
        pot = EXTERNALS[kind.partition("-")[2] or "none"][0]
        st = separated_product_state(grid, (-1.5, 1.5), 0.7, 0.5)
    else:
        pot, center, momentum = EXTERNALS[kind]
        st = gaussian_product_metastate(grid, center, 0.7, momentum)
    cfg = EvolutionConfig(dt=1e-3, steps=100)
    _, psi1 = dyson_first_order(st, pot, pair, cfg)

    def full(gg):
        return evolve(st, pot, setup(g=gg)[2], cfg).final_state.amplitudes

    eps = 1e-3 * g
    u0, u1, u2 = full(0.0), full(eps), full(2.0 * eps)
    deriv = (2.0 * (u1 - u0) / eps - (u2 - u0) / (2.0 * eps)) * g
    rel = np.max(np.abs(psi1.amplitudes - deriv)) / np.max(np.abs(deriv))
    assert rel < 2e-8


@pytest.mark.parametrize("kind", ["none", "harmonic"])
def test_dyson_agrees_with_midpoint_reference(kind):
    pot, center, momentum = EXTERNALS[kind]
    units, grid, pair = setup(g=0.5)
    st = gaussian_product_metastate(grid, center, 0.7, momentum)
    cfg = EvolutionConfig(dt=5e-4, steps=200)
    psi0, psi1 = dyson_first_order(st, pot, pair, cfg)
    ref0, ref1 = dyson_midpoint_reference(st, pot, pair, cfg)
    assert np.max(np.abs(psi0.amplitudes - ref0)) < 1e-12
    assert np.max(np.abs(psi1.amplitudes - ref1)) / np.max(np.abs(ref1)) < 1e-6


def test_dyson_power_of_two_rescale_exact():
    """Halving G halves psi1 bit for bit and leaves psi0 untouched."""
    st = None
    channels = {}
    for g in (0.5, 0.25):
        units, grid, pair = setup(g=g)
        if st is None:
            st = gaussian_product_metastate(grid, 0.3, 0.7, 0.5)
        channels[g] = dyson_first_order(st, ExternalPotential.harmonic(omega=1.0), pair,
                                        EvolutionConfig(dt=1e-3, steps=60))
    assert np.array_equal(channels[0.25][0].amplitudes, channels[0.5][0].amplitudes)
    assert np.array_equal(channels[0.25][1].amplitudes, 0.5 * channels[0.5][1].amplitudes)


def test_dyson_density_mass_conserved():
    units, grid, pair = setup(g=0.5)
    st = gaussian_product_metastate(grid, 0.0, 0.7, 0.0)
    psi0, psi1 = dyson_first_order(st, ExternalPotential.null(), pair,
                                   EvolutionConfig(dt=1e-3, steps=80))
    pr = first_order_position_density(psi0, psi1)
    np.testing.assert_allclose(np.sum(pr) * grid.dx, 1.0, atol=1e-8)


def test_first_order_density_compares_grids_by_value():
    units, grid, pair = setup(g=0.5)
    twin_grid = make_grid(grid.x_min, grid.x_max, grid.n)
    psi0, psi1 = dyson_first_order(gaussian_product_metastate(grid, 0.0, 0.7, 0.0),
                                   ExternalPotential.null(), pair, EvolutionConfig(dt=1e-3, steps=20))
    twin = MetaState(grid=twin_grid, amplitudes=psi1.amplitudes, time=psi1.time)
    np.testing.assert_array_equal(first_order_position_density(psi0, twin),
                                  first_order_position_density(psi0, psi1))
    coarse = gaussian_product_metastate(make_grid(grid.x_min, grid.x_max, grid.n // 2), 0.0, 0.7, 0.0)
    with pytest.raises(ValidationError):
        first_order_position_density(psi0, coarse)


def test_dyson_precondition_guard():
    units, grid, pair = setup(g=20.0)
    st = gaussian_product_metastate(grid, 0.0, 0.7, 0.0)
    with pytest.raises(ValidationError):
        dyson_first_order(st, ExternalPotential.null(), pair,
                          EvolutionConfig(dt=2e-3, steps=500))


# --- separated centre-of-mass / separation engine ----------------------------

SEPARATED_CASES = {
    "two-packets-at-rest": ((-2.0, 2.0), 0.0),
    "two-packets-moving": ((-2.0, 2.0), 0.5),
    "one-packet": ((0.0,), 1.0),
}

# (start, external kind) pairs for the engine agreement test, by test id.
AGREEMENT_CASES = {
    **{case: (case, "none") for case in SEPARATED_CASES},
    "harmonic-two-packets-moving": ("two-packets-moving", "harmonic"),
    "uniform-field-two-packets-at-rest": ("two-packets-at-rest", "uniform-field"),
}


def product_oracle(grid, centers, width, momentum):
    psi = sum(gaussian_wavepacket(grid, c, width, momentum) for c in centers)
    return product_metastate(grid, psi)


@pytest.mark.parametrize("case", sorted(SEPARATED_CASES))
def test_separated_builder_gathers_to_product_state(case):
    centers, momentum = SEPARATED_CASES[case]
    grid = make_grid(-16.0, 16.0, 256)
    sep = separated_product_state(grid, centers, 0.7, momentum)
    gathered = sep.metastate()
    ref = product_oracle(grid, centers, 0.7, momentum)
    assert np.max(np.abs(gathered.amplitudes - ref.amplitudes)) <= 1e-15
    assert gathered.exchange_asymmetry() == 0.0
    assert sep.com.shape == sep.rel.shape == (len(centers) * (len(centers) + 1) // 2, 512)


@pytest.mark.parametrize("case", sorted(AGREEMENT_CASES))
def test_separated_engine_agrees_with_2d_engine(case):
    """The 2D engine is the oracle; they differ only at the band edge and the seam."""
    start, kind = AGREEMENT_CASES[case]
    centers, momentum = SEPARATED_CASES[start]
    pot = EXTERNALS[kind][0]
    units, grid, pair = setup(g=1.0 / 3.0, n=256, half_span=16.0)
    sep = separated_product_state(grid, centers, 0.7, momentum)
    ref = product_oracle(grid, centers, 0.7, momentum)
    cfg = EvolutionConfig(dt=5e-4, steps=200, record_every=200)
    full = evolve(sep, pot, pair, cfg).final_state
    full_ref = evolve(ref, pot, pair, cfg).final_state
    assert np.max(np.abs(full.amplitudes - full_ref.amplitudes)) <= 5e-9
    psi0, psi1 = dyson_first_order(sep, pot, pair, cfg)
    ref0, ref1 = dyson_first_order(ref, pot, pair, cfg)
    assert np.max(np.abs(psi0.amplitudes - ref0.amplitudes)) <= 1e-12
    assert np.max(np.abs(psi1.amplitudes - ref1.amplitudes)) <= 5e-9
    assert full.time == full_ref.time == psi1.time


def test_separated_free_pair_matches_closed_form():
    """A free packet with momentum: exact within the band, and no seam to wrap."""
    units, grid, pair = setup(g=0.0, n=128, half_span=10.0)
    width, momentum = 0.5, 2.0
    t_end = math.sqrt(3.0) * 2.0 * width**2  # width doubling time, ~0.87
    steps = 250
    sep = separated_product_state(grid, (0.0,), width, momentum)
    rec = evolve(sep, ExternalPotential.null(), pair,
                 EvolutionConfig(dt=t_end / steps, steps=steps, record_every=steps))
    x = grid.x
    alpha = 1.0 + 1j * rec.final_state.time / (2.0 * width**2)
    psi = (
        (2.0 * math.pi * width**2) ** -0.25 / np.sqrt(alpha)
        * np.exp(-((x - momentum * rec.final_state.time) ** 2) / (4.0 * width**2 * alpha)
                 + 1j * momentum * x - 0.5j * momentum**2 * rec.final_state.time)
    )
    exact = np.outer(psi, psi)
    assert abs(rec.final_state.time - t_end) < 1e-12
    assert np.max(np.abs(rec.final_state.amplitudes - exact)) <= 1e-12


def test_separated_state_validation():
    grid = make_grid(-8.0, 8.0, 16)
    good = np.ones((1, 32))
    with pytest.raises(ValidationError):
        SeparatedState(grid=grid, com=np.ones((1, 16)), rel=good)
    with pytest.raises(ValidationError):
        SeparatedState(grid=grid, com=good, rel=np.ones((2, 32)))
    with pytest.raises(ValidationError):
        SeparatedState(grid=grid, com=good, rel=np.full((1, 32), np.nan))
    st = SeparatedState(grid=grid, com=good, rel=good)
    assert not st.com.flags.writeable and not st.rel.flags.writeable
