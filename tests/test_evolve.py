import math

import numpy as np
import pytest
import scipy.fft as sfft

from gravtwin import (
    CFLViolation,
    EvolutionConfig,
    Grid1D,
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
    product_metastate,
    separated_product_state,
)
from gravtwin.evolve import WORKERS_ENV, _GridEngine, _SeparatedEngine

UNIT = ParticleSpecies(mass=1.0, radius=1.0)


def setup(g=0.0, n=128, half_span=8.0):
    units = UnitSystem.dimensionless(g=g)
    grid = Grid1D(-half_span, half_span, n)
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
        evolve(st, (pair,), cfg)
    assert "largest stable dt" in str(err.value)
    # just inside the bound is accepted
    evolve(st, (pair,), EvolutionConfig(dt=2.4e-3, steps=1))


def test_requires_normalized_input():
    units, grid, pair = setup()
    st = gaussian_product_metastate(grid, 0.0, 0.6, 0.0)
    bad = MetaState(grid=grid, amplitudes=1.5 * st.amplitudes)
    with pytest.raises(ValidationError):
        evolve(bad, (pair,), EvolutionConfig(dt=1e-3, steps=1))


def test_free_norm_conservation():
    units, grid, pair = setup()
    st = gaussian_product_metastate(grid, 0.0, 0.6, 1.0)
    rec = evolve(st, (pair,),
                 EvolutionConfig(dt=1e-3, steps=300, record_every=50),
                 observer=lambda s: s.norm())[0]
    assert np.max(np.abs(np.array(rec.reduced_observables) - 1.0)) < 1e-12


def test_free_spreading_law():
    """Variance growth of a free packet against the closed form."""
    units, grid, pair = setup(n=256, half_span=20.0)
    sigma0 = 0.5
    st = gaussian_product_metastate(grid, 0.0, sigma0, 0.0)
    t_double = math.sqrt(3.0) * 2.0 * sigma0**2  # sigma doubles here
    steps = 500
    cfg = EvolutionConfig(dt=t_double / steps, steps=steps, record_every=50)
    rec = evolve(st, (pair,), cfg,
                 observer=lambda s: {"var": moments(s)[1]})[0]
    var = np.array([o["var"] for o in rec.reduced_observables])
    expected = sigma0**2 * (1.0 + (rec.times / (2.0 * sigma0**2)) ** 2)
    np.testing.assert_allclose(var, expected, rtol=1e-4)
    np.testing.assert_allclose(var[-1], 4.0 * sigma0**2, rtol=1e-4)


@pytest.mark.parametrize("engine", ["2d", "separated"])
def test_pair_coupling_leaves_centre_of_mass_free(engine):
    """The pair force is internal: <x>(t) = x0 + p t / m under coupling, on either engine."""
    center, momentum = 0.3, 0.5
    cfg = EvolutionConfig(dt=1e-3, steps=1000, record_every=100)
    variances = {}
    for g in (0.0, 1.0):
        units, grid, pair = setup(g=g, n=256, half_span=16.0)
        if engine == "2d":
            st = gaussian_product_metastate(grid, center, 0.7, momentum)
        else:
            st = separated_product_state(grid, (center - 1.5, center + 1.5), 0.7, momentum)
        rec = evolve(st, (pair,), cfg, observer=moments)[0]
        mean = np.array([o[0] for o in rec.reduced_observables])
        np.testing.assert_allclose(mean, center + momentum * rec.times / UNIT.mass, rtol=0.0, atol=1e-11)
        variances[g] = rec.reduced_observables[-1][1]
    # the coupling does act on the relative motion
    assert variances[0.0] - variances[1.0] > 0.05


def test_exchange_symmetry_preserved():
    units, grid, pair = setup(g=1.0)
    st = gaussian_product_metastate(grid, 0.5, 0.7, 0.8)
    rec = evolve(st, (pair,), EvolutionConfig(dt=1e-3, steps=400))[0]
    assert rec.final_state.exchange_asymmetry() < 1e-10


def test_time_reversal_fidelity():
    units, grid, pair = setup(g=1.0)
    st = gaussian_product_metastate(grid, 0.0, 0.7, 1.0)
    cfg = EvolutionConfig(dt=1e-3, steps=300)
    fwd = evolve(st, (pair,), cfg)[0].final_state
    back_in = MetaState(grid=grid, amplitudes=np.conj(fwd.amplitudes))
    back = evolve(back_in, (pair,), cfg)[0].final_state
    overlap = np.vdot(st.amplitudes, np.conj(back.amplitudes)) * grid.dx**2
    assert abs(overlap) > 1.0 - 1e-8


def test_splitting_order_is_two():
    """Error against a dt/4 reference: ratio e1/e2 pins the order.

    With errors C dt^p against the dt/4 run, e1/e2 = (4^p - 1)/(4^p/2^p - 1),
    so p = log2(e1/e2 - 1).  Strang should land in [1.8, 2.2] on either engine.
    """
    units, grid, pair = setup(g=0.8)
    for st in (gaussian_product_metastate(grid, 0.5, 0.7, 0.0),
               separated_product_state(grid, (0.5,), 0.7, 0.0)):
        finals = {}
        for div in (1, 2, 4):
            cfg = EvolutionConfig(dt=1e-3 / div, steps=100 * div)
            finals[div] = evolve(st, (pair,), cfg)[0].final_state.amplitudes
        e1 = np.linalg.norm(finals[1] - finals[4])
        e2 = np.linalg.norm(finals[2] - finals[4])
        p = math.log2(e1 / e2 - 1.0)
        assert 1.8 < p < 2.2


def test_record_points(monkeypatch):
    units, grid, pair = setup()
    gathers = []
    for engine in (_GridEngine, _SeparatedEngine):
        real_gather = engine.gather
        monkeypatch.setattr(engine, "gather", lambda self, z, t, _f=real_gather: gathers.append(t) or _f(self, z, t))
    cfg = EvolutionConfig(dt=1e-3, steps=95, record_every=30)
    for st in (gaussian_product_metastate(grid, 0.0, 0.6, 0.0), separated_product_state(grid, (0.0,), 0.6, 0.0)):
        gathers.clear()
        rec = evolve(st, (pair,), cfg)[0]
        np.testing.assert_allclose(rec.times, np.array([0, 30, 60, 90, 95]) * 1e-3, rtol=1e-12)
        assert rec.final_state.time == rec.times[-1]
        assert rec.reduced_observables is None
        # with no observer only the final state is gathered
        assert gathers == [rec.times[-1]]
        gathers.clear()
        seen = evolve(st, (pair,), cfg, observer=lambda s: s.time)[0].reduced_observables
        assert seen == list(rec.times)
        assert gathers == list(rec.times[1:])  # the start needs no gather


# --- a coupling scan as one stack ----------------------------------------------

SCAN_COUPLINGS = (0.0, 0.25, 1.0)


def scan_start(engine, grid):
    """Two packets 4 apart, moving: on the pair grid for the 2D engine, as factors for the separated one."""
    if engine == "2d":
        return product_oracle(grid, (-2.0, 2.0), 0.7, 0.5)
    return separated_product_state(grid, (-2.0, 2.0), 0.7, 0.5)


@pytest.mark.parametrize("engine", ["2d", "separated"])
def test_scan_equals_one_pair_runs_bitwise(engine):
    grid = Grid1D(-16.0, 16.0, 128)
    st = scan_start(engine, grid)
    pairs = [PairPotential(UNIT, UnitSystem.dimensionless(g)) for g in SCAN_COUPLINGS]
    cfg = EvolutionConfig(dt=1e-3, steps=50, record_every=20)
    scan = evolve(st, pairs, cfg, observer=lambda s: s.amplitudes)
    assert len(scan) == len(pairs)
    for pair, rec in zip(pairs, scan):
        alone = evolve(st, (pair,), cfg, observer=lambda s: s.amplitudes)[0]
        assert np.array_equal(rec.times, alone.times)
        assert rec.final_state.time == alone.final_state.time
        assert np.array_equal(rec.final_state.amplitudes, alone.final_state.amplitudes)
        assert len(rec.reduced_observables) == len(alone.reduced_observables) == 4
        for seen, seen_alone in zip(rec.reduced_observables, alone.reduced_observables):
            assert np.array_equal(seen, seen_alone)


# --- the pair-grid engine's transform threads ---

def test_pair_grid_worker_counts_give_the_same_bytes(monkeypatch):
    # No scenario builds the 2D engine, so criterion 9's worker leg never reaches it.
    grid = Grid1D(-10.0, 10.0, 64)
    st = scan_start("2d", grid)
    cfg = EvolutionConfig(dt=1e-3, steps=40)
    pairs = [PairPotential(UNIT, UnitSystem.dimensionless(g)) for g in (0.25, 1.0)]
    runs = {}
    for workers in ("1", "2"):
        monkeypatch.setenv(WORKERS_ENV, workers)
        psi0, psi1 = dyson_first_order(st, PairPotential(UNIT, UnitSystem.dimensionless(0.5)), cfg)
        runs[workers] = [rec.final_state.amplitudes.tobytes() for rec in evolve(st, pairs, cfg)] + [
            psi0.amplitudes.tobytes(), psi1.amplitudes.tobytes()]
    assert runs["1"] == runs["2"]


def test_scan_observes_the_start_once(monkeypatch):
    units, grid, _ = setup(half_span=16.0)
    st = scan_start("separated", grid)
    pairs = [PairPotential(UNIT, UnitSystem.dimensionless(g)) for g in SCAN_COUPLINGS]
    cfg = EvolutionConfig(dt=1e-3, steps=40, record_every=20)
    gathers = []
    real_metastate = SeparatedState.metastate
    monkeypatch.setattr(SeparatedState, "metastate", lambda self: gathers.append(self.time) or real_metastate(self))

    # with no observer only the final states are gathered, the start not at all
    scan = evolve(st, pairs, cfg)
    times = list(scan[0].times)
    assert gathers == [times[-1]] * len(pairs)

    gathers.clear()
    seen = []
    scan = evolve(st, pairs, cfg, observer=lambda s: seen.append(s.time) or [s.time])
    per_record = [t for t in times[1:] for _ in pairs]
    assert seen == gathers == [times[0]] + per_record
    opening = scan[0].reduced_observables[0]
    assert all(rec.reduced_observables[0] is opening for rec in scan)
    assert [rec.reduced_observables for rec in scan] == [[[t] for t in times]] * len(pairs)


def test_scan_rejects_pairs_that_differ_beyond_g(monkeypatch):
    units, grid, pair = setup(g=0.5, half_span=16.0)
    st = scan_start("separated", grid)
    cfg = EvolutionConfig(dt=1e-3, steps=5)
    heavier = PairPotential(ParticleSpecies(mass=2.0, radius=1.0), units)
    other_hbar = (
        PairPotential(UNIT, UnitSystem(hbar=1.0, G=0.5)),
        PairPotential(UNIT, UnitSystem(hbar=2.0, G=0.5)),
    )
    gathers = []
    monkeypatch.setattr(SeparatedState, "metastate", lambda self: gathers.append(self))
    for pairs, match in (((), "at least one"), ((pair, heavier), "only in G"), (other_hbar, "only in G")):
        with pytest.raises(ValidationError, match=match):
            evolve(st, pairs, cfg)
    assert gathers == []


def test_nan_abort_with_diagnostic():
    units, grid, pair = setup()
    st = gaussian_product_metastate(grid, 0.0, 0.6, 0.0)
    amps = st.amplitudes
    amps.setflags(write=True)
    amps[0, 0] = np.nan  # simulate an upstream blow-up
    with pytest.raises(NumericalAbort) as err:
        evolve(st, (pair,), EvolutionConfig(dt=1e-3, steps=5))
    assert "step" in str(err.value)


def test_dyson_zero_coupling_kills_correction():
    units, grid, pair = setup(g=0.0)
    st = gaussian_product_metastate(grid, 0.0, 0.7, 0.0)
    psi0, psi1 = dyson_first_order(st, pair,
                                   EvolutionConfig(dt=1e-3, steps=50))
    assert np.all(psi1.amplitudes == 0.0)
    np.testing.assert_allclose(psi0.norm(), 1.0, atol=1e-12)


def test_dyson_zeroth_channel_matches_free_run():
    # psi0 must be the g = 0 discretization exactly, not merely close, on either engine
    units, grid, pair = setup(g=0.5)
    _, _, free_pair = setup(g=0.0)
    cfg = EvolutionConfig(dt=1e-3, steps=100)
    center, momentum = STARTS["off-centre-moving"]
    starts = (
        gaussian_product_metastate(grid, center, 0.7, momentum),
        separated_product_state(grid, (-1.5, 1.5), 0.7, 0.5),
    )
    for st in starts:
        psi0, _ = dyson_first_order(st, pair, cfg)
        ref = evolve(st, (free_pair,), cfg)[0].final_state
        assert np.array_equal(psi0.amplitudes, ref.amplitudes)


def test_dyson_residual_quarter_scaling():
    """Halving g must quarter the first-order residual (second-order remainder)."""
    st = None
    residuals = {}
    for g in (0.5, 0.25):
        units, grid, pair = setup(g=g)
        if st is None:
            st = gaussian_product_metastate(grid, 0.0, 0.7, 0.0)
        cfg = EvolutionConfig(dt=5e-4, steps=200)
        psi0, psi1 = dyson_first_order(st, pair, cfg)
        full = evolve(st, (pair,), cfg)[0].final_state
        residuals[g] = np.linalg.norm(
            full.amplitudes - psi0.amplitudes - psi1.amplitudes
        )
    ratio = residuals[0.5] / residuals[0.25]
    assert 3.5 < ratio < 4.5


def dyson_midpoint_reference(state0, pair, cfg):
    """Dyson channels with the insertion at each step's kinetic midpoint.

    The first-order engine's former loop, four transform pairs per step;
    it differs from the derivative of the Strang step at order g dt^2.
    """
    grid = state0.grid
    hbar = pair.units.hbar
    v_pair = pair.evaluate_on_grid(grid)
    k2 = grid.momentum_grid**2
    k_diag = k2[:, None] + k2[None, :]
    half_k = np.exp(-0.25j * hbar * cfg.dt / pair.species.mass * k_diag)

    def half_kin(z):
        return sfft.ifft2(sfft.fft2(z) * half_k)

    phi = np.array(state0.amplitudes)
    chi = np.zeros_like(phi)
    for _ in range(cfg.steps):
        phi_mid = half_kin(phi)
        chi_mid = half_kin(chi)
        chi_mid += (-1j * cfg.dt / hbar) * v_pair * phi_mid
        phi = half_kin(phi_mid)
        chi = half_kin(chi_mid)
    return phi, chi


# (centre, momentum) of the 2D-engine starts for the Dyson tests, by test id.
STARTS = {
    "centred-at-rest": (0.0, 0.0),
    "off-centre-moving": (0.3, 0.5),
    "left-of-centre-fast": (-0.5, 1.0),
}

# (centres, momentum) of the separated-engine starts for the Dyson tests, by test id.
SEPARATED_STARTS = {
    "separated": ((-1.5, 1.5), 0.5),
    "separated-at-rest": ((-1.5, 1.5), 0.0),
    "separated-one-packet": ((0.0,), 1.0),
}


@pytest.mark.parametrize("kind", sorted(STARTS) + sorted(SEPARATED_STARTS))
def test_dyson_is_derivative_of_strang_step(kind):
    """psi1 against a Richardson forward difference in g of evolve, on either engine."""
    g = 0.5
    units, grid, pair = setup(g=g)
    if kind in SEPARATED_STARTS:
        centers, momentum = SEPARATED_STARTS[kind]
        st = separated_product_state(grid, centers, 0.7, momentum)
    else:
        center, momentum = STARTS[kind]
        st = gaussian_product_metastate(grid, center, 0.7, momentum)
    cfg = EvolutionConfig(dt=1e-3, steps=100)
    _, psi1 = dyson_first_order(st, pair, cfg)

    def full(gg):
        return evolve(st, (setup(g=gg)[2],), cfg)[0].final_state.amplitudes

    eps = 1e-3 * g
    u0, u1, u2 = full(0.0), full(eps), full(2.0 * eps)
    deriv = (2.0 * (u1 - u0) / eps - (u2 - u0) / (2.0 * eps)) * g
    rel = np.max(np.abs(psi1.amplitudes - deriv)) / np.max(np.abs(deriv))
    assert rel < 2e-8


@pytest.mark.parametrize("kind", sorted(STARTS))
def test_dyson_agrees_with_midpoint_reference(kind):
    center, momentum = STARTS[kind]
    units, grid, pair = setup(g=0.5)
    st = gaussian_product_metastate(grid, center, 0.7, momentum)
    cfg = EvolutionConfig(dt=5e-4, steps=200)
    psi0, psi1 = dyson_first_order(st, pair, cfg)
    ref0, ref1 = dyson_midpoint_reference(st, pair, cfg)
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
        channels[g] = dyson_first_order(st, pair, EvolutionConfig(dt=1e-3, steps=60))
    assert np.array_equal(channels[0.25][0].amplitudes, channels[0.5][0].amplitudes)
    assert np.array_equal(channels[0.25][1].amplitudes, 0.5 * channels[0.5][1].amplitudes)


def test_dyson_density_mass_conserved():
    units, grid, pair = setup(g=0.5)
    st = gaussian_product_metastate(grid, 0.0, 0.7, 0.0)
    psi0, psi1 = dyson_first_order(st, pair,
                                   EvolutionConfig(dt=1e-3, steps=80))
    [pr] = first_order_position_density(psi0, psi1, (1.0,))
    np.testing.assert_allclose(np.sum(pr) * grid.dx, 1.0, atol=1e-8)


def test_first_order_density_compares_grids_by_value():
    units, grid, pair = setup(g=0.5)
    twin_grid = Grid1D(grid.x_min, grid.x_max, grid.n)
    psi0, psi1 = dyson_first_order(gaussian_product_metastate(grid, 0.0, 0.7, 0.0),
                                   pair, EvolutionConfig(dt=1e-3, steps=20))
    twin = MetaState(grid=twin_grid, amplitudes=psi1.amplitudes, time=psi1.time)
    np.testing.assert_array_equal(first_order_position_density(psi0, twin, (1.0,))[0],
                                  first_order_position_density(psi0, psi1, (1.0,))[0])
    coarse = gaussian_product_metastate(Grid1D(grid.x_min, grid.x_max, grid.n // 2), 0.0, 0.7, 0.0)
    with pytest.raises(ValidationError):
        first_order_position_density(psi0, coarse, (1.0,))


def test_dyson_precondition_guard():
    units, grid, pair = setup(g=20.0)
    st = gaussian_product_metastate(grid, 0.0, 0.7, 0.0)
    with pytest.raises(ValidationError):
        dyson_first_order(st, pair,
                          EvolutionConfig(dt=2e-3, steps=500))


def test_dyson_refuses_window_before_gathering_the_start(monkeypatch):
    # a coupling past the first-order window fails before the start is gathered on the pair grid
    units, grid, pair = setup(g=20.0)
    st = separated_product_state(grid, (-1.5, 1.5), 0.7, 0.0)
    gathers = []
    real_metastate = SeparatedState.metastate
    monkeypatch.setattr(SeparatedState, "metastate", lambda self: gathers.append(self) or real_metastate(self))
    with pytest.raises(ValidationError, match="first-order"):
        dyson_first_order(st, pair, EvolutionConfig(dt=2e-3, steps=500))
    assert gathers == []


def test_separated_dyson_gathers_only_its_two_channels(monkeypatch):
    # the start norm is read on the factors, so only psi0 and psi1 reach the pair grid
    units, grid, pair = setup(g=0.5)
    st = separated_product_state(grid, (-1.5, 1.5), 0.7, 0.0)
    gathers = []
    real_metastate = SeparatedState.metastate
    monkeypatch.setattr(SeparatedState, "metastate", lambda self: gathers.append(self.time) or real_metastate(self))
    psi0, psi1 = dyson_first_order(st, pair, EvolutionConfig(dt=1e-3, steps=20))
    assert gathers == [psi0.time, psi1.time]


# --- separated centre-of-mass / separation engine ----------------------------

SEPARATED_CASES = {
    "two-packets-at-rest": ((-2.0, 2.0), 0.0),
    "two-packets-moving": ((-2.0, 2.0), 0.5),
    "one-packet": ((0.0,), 1.0),
}

# Starts for the engine agreement test, by test id: the builder's cases, three
# packets (six pair terms, unequal separations) and two overlapping packets.
AGREEMENT_CASES = {
    **SEPARATED_CASES,
    "three-packets-moving": ((-3.0, 0.0, 3.0), 0.5),
    "two-packets-overlapping": ((-0.5, 0.5), 0.0),
}

def product_oracle(grid, centers, width, momentum):
    psi = sum(gaussian_wavepacket(grid, c, width, momentum) for c in centers)
    return product_metastate(grid, psi)


@pytest.mark.parametrize("case", sorted(SEPARATED_CASES))
def test_separated_builder_gathers_to_product_state(case):
    centers, momentum = SEPARATED_CASES[case]
    grid = Grid1D(-16.0, 16.0, 256)
    sep = separated_product_state(grid, centers, 0.7, momentum)
    gathered = sep.metastate()
    ref = product_oracle(grid, centers, 0.7, momentum)
    assert np.max(np.abs(gathered.amplitudes - ref.amplitudes)) <= 1e-15
    assert gathered.exchange_asymmetry() == 0.0
    assert sep.com.shape == sep.rel.shape == (len(centers) * (len(centers) + 1) // 2, 512)


@pytest.mark.parametrize("case", sorted(AGREEMENT_CASES))
def test_separated_engine_agrees_with_2d_engine(case):
    """The 2D engine is the oracle; they differ only at the band edge and the seam."""
    centers, momentum = AGREEMENT_CASES[case]
    units, grid, pair = setup(g=1.0 / 3.0, n=256, half_span=16.0)
    sep = separated_product_state(grid, centers, 0.7, momentum)
    ref = product_oracle(grid, centers, 0.7, momentum)
    cfg = EvolutionConfig(dt=5e-4, steps=200, record_every=200)
    full = evolve(sep, (pair,), cfg)[0].final_state
    full_ref = evolve(ref, (pair,), cfg)[0].final_state
    assert np.max(np.abs(full.amplitudes - full_ref.amplitudes)) <= 5e-9
    psi0, psi1 = dyson_first_order(sep, pair, cfg)
    ref0, ref1 = dyson_first_order(ref, pair, cfg)
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
    rec = evolve(sep, (pair,),
                 EvolutionConfig(dt=t_end / steps, steps=steps, record_every=steps))[0]
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


def random_factors(grid, terms, seed):
    """A SeparatedState with seeded random factors on all 2n samples, gathered norm 1.

    The factors fill the whole (X, r) square, about half of which lies
    outside the n x n box, so the gather drops much of their mass.
    """
    rng = np.random.default_rng(seed)
    shape = (terms, 2 * grid.n)
    com, rel = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(2))
    rel /= SeparatedState(grid=grid, com=com, rel=rel).metastate().norm()
    return SeparatedState(grid=grid, com=com, rel=rel)


def whole_array_gather(sep):
    """The pair amplitude by the whole-array formula: sum_k hankel[k] * toeplitz[k] in one n x n pass."""
    n = sep.grid.n
    window = np.lib.stride_tricks.sliding_window_view
    hankel = window(sep.com[:, :-1], n, axis=-1)
    toeplitz = window(sep.rel[:, 1:], n, axis=-1)[..., ::-1]
    amps = hankel[0] * toeplitz[0]
    for k in range(1, sep.com.shape[0]):
        amps += hankel[k] * toeplitz[k]
    return amps


# K = 1, 3 and 6 are the term counts of the one-, two- and three-packet builders.
@pytest.mark.parametrize("terms", [1, 3, 6])
@pytest.mark.parametrize("n", [8, 64, 512])
def test_blocked_gather_is_the_whole_array_formula_bitwise(n, terms):
    sep = random_factors(Grid1D(-16.0, 16.0, n), terms, seed=100 * n + terms)
    assert np.array_equal(sep.metastate().amplitudes, whole_array_gather(sep))


@pytest.mark.parametrize("n", [8, 512])
def test_cached_norms_are_the_uncached_sums_bitwise(n):
    grid = Grid1D(-16.0, 16.0, n)
    sep = random_factors(grid, 3, seed=n)
    amps = whole_array_gather(sep)
    blocks = sum(float(np.vdot(b, b).real) for b in np.split(amps, max(1, n // 32)))
    meta = sep.metastate()
    for _ in range(2):  # the first call sums, the second reads the cache
        assert sep.norm() == math.sqrt(blocks) * grid.dx
        assert meta.norm() == math.sqrt(float(np.vdot(amps, amps).real)) * grid.dx


@pytest.mark.parametrize("case", sorted(AGREEMENT_CASES) + ["factors-outside-the-box"])
def test_separated_norm_is_the_gathered_norm(case):
    grid = Grid1D(-16.0, 16.0, 256)
    if case in AGREEMENT_CASES:
        centers, momentum = AGREEMENT_CASES[case]
        sep = separated_product_state(grid, centers, 0.7, momentum)
    else:
        sep = random_factors(grid, 3, seed=7)
        # F[s, m] = sum_k com[k, s] rel[k, m]; the box holds the samples with s + m - n even
        # and |s - n + 1| + |m - n| <= n - 1, so the whole lattice carries more mass than the box.
        f = sep.com.T @ sep.rel
        s, m = np.indices(f.shape)
        lattice = math.sqrt(float(np.sum(np.abs(f[(s + m - grid.n) % 2 == 0]) ** 2))) * grid.dx
        assert lattice > 1.2
    assert abs(sep.norm() - sep.metastate().norm()) <= 1e-14


def test_separated_state_validation():
    grid = Grid1D(-8.0, 8.0, 16)
    good = np.ones((1, 32))
    with pytest.raises(ValidationError):
        SeparatedState(grid=grid, com=np.ones((1, 16)), rel=good)
    with pytest.raises(ValidationError):
        SeparatedState(grid=grid, com=good, rel=np.ones((2, 32)))
    with pytest.raises(ValidationError):
        SeparatedState(grid=grid, com=good, rel=np.full((1, 32), np.nan))
    st = SeparatedState(grid=grid, com=good, rel=good)
    assert not st.com.flags.writeable and not st.rel.flags.writeable
