import math
import tracemalloc

import numpy as np
import pytest

from gravtwin import (
    EvolutionConfig,
    Grid1D,
    MetaState,
    PairPotential,
    ParticleSpecies,
    ReducedDensityMatrix,
    UnitSystem,
    ValidationError,
    decoherence_report,
    evolve,
    gaussian_product_metastate,
    gaussian_wavepacket,
    partial_trace,
    position_probability,
    product_metastate,
    separated_product_state,
    structural_checks,
)
from gravtwin.core import max_skew


def grid_default(n=256, half_span=16.0):
    return Grid1D(-half_span, half_span, n)


def correlated_two_packet(grid, sep, width):
    """(L(x)L(x~) + R(x)R(x~)) / sqrt(2): maximally entangled at large sep."""
    left = gaussian_wavepacket(grid, -sep / 2.0, width, 0.0)
    right = gaussian_wavepacket(grid, sep / 2.0, width, 0.0)
    amps = (np.outer(left, left) + np.outer(right, right)) / math.sqrt(2.0)
    amps = amps / (np.linalg.norm(amps) * grid.dx)
    return MetaState(grid=grid, amplitudes=amps)


def test_product_state_is_pure():
    g = grid_default()
    st = gaussian_product_metastate(g, 0.3, 0.8, 1.0)
    rho = partial_trace(st)
    rep = decoherence_report(rho, d_cut=3.2)
    np.testing.assert_allclose(rep.purity, 1.0, atol=1e-10)
    np.testing.assert_allclose(rep.linear_entropy, 0.0, atol=1e-10)
    assert abs(rep.von_neumann_entropy) < 1e-6


def test_correlated_state_purity_half():
    # two branches, overlap exp(-sep^2 / 8 w^2) ~ 3e-6 at sep = 10 w
    g = grid_default()
    st = correlated_two_packet(g, sep=8.0, width=0.8)
    rep = decoherence_report(partial_trace(st), d_cut=3.2)
    np.testing.assert_allclose(rep.purity, 0.5, atol=1e-6)
    np.testing.assert_allclose(rep.von_neumann_entropy, math.log(2.0), atol=1e-4)


def test_density_matches_marginal():
    g = grid_default()
    st = gaussian_product_metastate(g, 0.0, 0.7, 0.0)
    rho = partial_trace(st)
    pr = position_probability(rho)
    direct = np.sum(np.abs(st.amplitudes) ** 2, axis=1) * g.dx
    np.testing.assert_allclose(pr, direct, atol=1e-12)
    np.testing.assert_allclose(np.sum(pr) * g.dx, 1.0, atol=1e-10)


def test_trace_is_one():
    g = grid_default()
    st = gaussian_product_metastate(g, 0.0, 0.7, 0.0)
    rho = partial_trace(st)
    np.testing.assert_allclose(rho.trace(), 1.0, atol=1e-10)


def test_rejects_drifted_norm():
    g = grid_default(n=64)
    st = gaussian_product_metastate(g, 0.0, 1.2, 0.0)
    drifted = MetaState(grid=g, amplitudes=st.amplitudes * 1.001)
    with pytest.raises(ValidationError):
        partial_trace(drifted)


def test_rho_constructor_guards():
    g = grid_default(n=64)
    ok = np.eye(64) / (64 * g.dx)
    from gravtwin import ReducedDensityMatrix

    assert ReducedDensityMatrix(grid=g, rho=ok).hermiticity == 0.0
    tiny = ok.astype(complex)
    tiny[0, 1] = 1e-12  # below the tolerance: accepted, and the defect is kept
    assert ReducedDensityMatrix(grid=g, rho=tiny).hermiticity == 1e-12

    skew = ok.astype(complex).copy()
    skew[0, 1] = 1e-6
    with pytest.raises(ValidationError):
        ReducedDensityMatrix(grid=g, rho=skew)
    with pytest.raises(ValidationError):
        ReducedDensityMatrix(grid=g, rho=2.0 * ok)
    with pytest.raises(ValidationError):
        ReducedDensityMatrix(grid=g, rho=np.eye(32))


def test_coherence_offdiag_tracks_cross_blocks():
    # d_cut = 6 widths: the single-packet rho keeps ~1e-2 of anti-diagonal
    # tail mass there, while cross blocks of a cat state sit at |x - x'| ~ 8
    g = grid_default()
    d_cut = 4.8
    pure = gaussian_product_metastate(g, 0.0, 0.8, 0.0)
    rep_pure = decoherence_report(partial_trace(pure), d_cut=d_cut)
    assert rep_pure.coherence_offdiag < 0.05

    # a superposition packet (L + R)/sqrt(2) in EACH copy stays a product
    # state: its rho keeps the far cross blocks
    left = gaussian_wavepacket(g, -4.0, 0.8, 0.0)
    right = gaussian_wavepacket(g, 4.0, 0.8, 0.0)
    cat = product_metastate(g, (left + right) / math.sqrt(2.0))
    rep_cat = decoherence_report(partial_trace(cat), d_cut=d_cut)
    assert rep_cat.coherence_offdiag > 1.0
    np.testing.assert_allclose(rep_cat.purity, 1.0, atol=1e-8)

    # the correlated analogue has no cross blocks at all
    corr = correlated_two_packet(g, sep=8.0, width=0.8)
    rep_corr = decoherence_report(partial_trace(corr), d_cut=d_cut)
    assert rep_corr.coherence_offdiag < 0.05
    assert rep_cat.coherence_offdiag > 20.0 * rep_corr.coherence_offdiag


def test_coherence_offdiag_decays_with_d_cut():
    g = grid_default()
    pure = gaussian_product_metastate(g, 0.0, 0.8, 0.0)
    rho = partial_trace(pure)
    vals = [decoherence_report(rho, d_cut=d).coherence_offdiag for d in (3.2, 4.8, 6.4, 8.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-5


def test_d_cut_validation():
    g = grid_default(n=64)
    rho = partial_trace(gaussian_product_metastate(g, 0.0, 1.2, 0.0))
    with pytest.raises(ValidationError):
        decoherence_report(rho, d_cut=0.0)
    with pytest.raises(ValidationError):
        decoherence_report(rho, d_cut=math.inf)


def test_entropies_consistent():
    g = grid_default()
    st = correlated_two_packet(g, sep=8.0, width=0.8)
    rep = decoherence_report(partial_trace(st), d_cut=3.2)
    np.testing.assert_allclose(rep.linear_entropy, 1.0 - rep.purity, rtol=1e-12)
    # vN >= linear entropy for any state
    assert rep.von_neumann_entropy >= rep.linear_entropy - 1e-10


def test_structural_checks_healthy_state():
    g = grid_default()
    st = gaussian_product_metastate(g, 0.0, 0.7, 0.5)
    checks = structural_checks(st)
    assert checks["norm_drift"] < 1e-10
    assert checks["exchange_asymmetry"] == 0.0
    assert checks["hermiticity"] < 1e-12
    assert checks["trace_error"] < 1e-10
    assert checks["min_eigenvalue"] > -1e-10
    # reusing a precomputed rho gives the same numbers
    rho = partial_trace(st)
    again = structural_checks(st, rho)
    assert again["trace_error"] == checks["trace_error"]
    assert again["hermiticity"] == checks["hermiticity"] == rho.hermiticity


def test_a_record_sums_its_norm_once(monkeypatch):
    # partial_trace checks the norm and structural_checks reports it: one sum.
    st = gaussian_product_metastate(grid_default(n=128), 0.0, 0.7, 0.5)
    vdot = np.vdot
    calls = []
    monkeypatch.setattr(np, "vdot", lambda *args: calls.append(None) or vdot(*args))
    checks = structural_checks(st)
    assert len(calls) == 1
    assert checks["norm"] == st.norm()
    assert len(calls) == 1


def test_report_position_density_is_diag():
    g = grid_default(n=128)
    st = gaussian_product_metastate(g, 1.0, 0.9, 0.0)
    rho = partial_trace(st)
    rep = decoherence_report(rho, d_cut=3.6)
    np.testing.assert_allclose(rep.position_density, position_probability(rho), atol=0)


def test_failed_eigensolve_abandons_only_the_spectrum(monkeypatch):
    g = grid_default(n=128)
    st = correlated_two_packet(g, sep=8.0, width=0.8)
    rho = partial_trace(st)

    def fail(a, *args, **kwargs):
        raise np.linalg.LinAlgError("synthetic non-convergence")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    rep = decoherence_report(rho, d_cut=3.2)
    checks = structural_checks(st, rho)
    assert math.isnan(rep.von_neumann_entropy)
    # the positivity certificate needs no spectrum
    assert -1e-10 < checks["min_eigenvalue"] < 0.0
    assert math.isfinite(rep.purity) and math.isfinite(rep.coherence_offdiag)
    np.testing.assert_allclose(rep.purity, 0.5, atol=1e-6)
    assert checks["trace_error"] < 1e-10
    # a failure is not cached: once the solver works, the spectrum appears
    monkeypatch.undo()
    np.testing.assert_allclose(rho.weights.sum(), 1.0, atol=1e-10)


# --- the Ritz weights against the dense spectrum ------------------------------


def _evolved_state(n, kind):
    """A free packet, the decoherence pair (g = 0.5) after 2000 or 20 steps, or the crosscheck pair (g = 1/3) at n."""
    grid = Grid1D(-16.0, 16.0, n)
    centers, g, steps = {
        "free": ((0.0,), 0.0, 400),
        "two-packet": ((-4.0, 4.0), 0.5, 2000),
        "early": ((-3.5, 3.5), 0.5, 20),
        "crosscheck": ((-2.0, 2.0), 1.0 / 3.0, 500),
    }[kind]
    pair = PairPotential(ParticleSpecies(mass=1.0, radius=1.0), UnitSystem.dimensionless(g))
    state = separated_product_state(grid, centers, 0.7, 0.0)
    cfg = EvolutionConfig(dt=5e-4, steps=steps, record_every=steps)
    return evolve(state, (pair,), cfg)[0].final_state


ORACLE_CASES = [(n, kind) for n in (128, 512) for kind in ("free", "two-packet", "early", "crosscheck")]


@pytest.fixture(scope="module")
def oracle_states():
    return {case: _evolved_state(*case) for case in ORACLE_CASES}


def _dense_entropy(w):
    p = w[w > 1e-12]
    return float(-np.sum(p * np.log(p)))


def assert_matches_dense(rho):
    """Weights above the floor within 1e-12 and the entropy within 1e-10 of eigvalsh(rho dx)."""
    dense = np.linalg.eigvalsh(rho.rho * rho.grid.dx)[::-1]
    fast = np.zeros_like(dense)
    fast[: rho.weights.size] = rho.weights[::-1]
    above = np.maximum(dense, fast) > 1e-12
    assert np.max(np.abs(fast - dense)[above]) <= 1e-12
    vn = decoherence_report(rho, d_cut=2.8).von_neumann_entropy
    assert abs(vn - _dense_entropy(dense)) <= 1e-10
    return dense


@pytest.mark.parametrize("case", ORACLE_CASES, ids=[f"{kind}-n{n}" for n, kind in ORACLE_CASES])
def test_weights_match_dense_spectrum(oracle_states, case):
    state = oracle_states[case]
    rho = partial_trace(state)
    dense = assert_matches_dense(rho)
    bound = structural_checks(state, rho)["min_eigenvalue"]
    assert bound <= dense[-1]
    assert bound > -1e-10


@pytest.mark.parametrize("case", ORACLE_CASES, ids=[f"{kind}-n{n}" for n, kind in ORACLE_CASES])
def test_rho_matches_the_complex_product(oracle_states, case):
    """rho from the real products agrees with A A^H dx and is exactly Hermitian."""
    state = oracle_states[case]
    a = state.amplitudes
    oracle = a @ a.conj().T * state.grid.dx
    rho = partial_trace(state).rho
    assert np.max(np.abs(rho - oracle)) <= 1e-14 * np.max(np.abs(oracle))
    assert np.array_equal(rho, rho.conj().T)
    assert rho.flags.c_contiguous and not rho.flags.writeable


def _planted(n, conjugate, row):
    """A random symmetric (or Hermitian) n x n matrix with one entry of `row` pushed off by 1e-3."""
    rng = np.random.default_rng([n, row])
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = x + (x.conj().T if conjugate else x.T)
    m[row, (row * 7 + 3) % n] += 1e-3 * (1 + 1j)
    return m


@pytest.mark.parametrize("conjugate", [False, True], ids=["transpose", "adjoint"])
@pytest.mark.parametrize("n", [8, 16, 64, 512])
def test_max_skew_is_bitwise_the_dense_maximum(n, conjugate):
    # the planted entry sits in the first, a middle and the last block of 32 rows
    for row in sorted({0, n // 2 + 1, n - 1}):
        m = _planted(n, conjugate, row)
        dense = np.max(np.abs(m - (m.conj().T if conjugate else m.T)))
        assert max_skew(m, conjugate) == dense
    noise = np.random.default_rng(n).standard_normal((n, n)) * (1 + 0.5j)
    assert max_skew(noise, conjugate) == np.max(np.abs(noise - (noise.conj().T if conjugate else noise.T)))
    noise[n - 1, 0] = np.nan
    assert math.isnan(max_skew(noise, conjugate))


def test_one_record_peaks_at_three_square_arrays():
    """Gather, partial trace and both reports hold at most 3.25 n x n complex arrays at once."""
    n = 256
    sep = separated_product_state(Grid1D(-16.0, 16.0, n), (-3.0, 3.0), 0.7, 0.5)

    def record():
        state = sep.metastate()
        rho = partial_trace(state)
        return structural_checks(state, rho), decoherence_report(rho, d_cut=2.8)

    record()  # fills the cached far mask and range-finder test matrices
    tracemalloc.start()
    try:
        record()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.25 * n * n * 16


def test_spread_state_reaches_full_rank(monkeypatch):
    n = 512
    g = Grid1D(-16.0, 16.0, n)
    rng = np.random.default_rng(7)
    amps = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    st = MetaState(grid=g, amplitudes=amps / (np.linalg.norm(amps) * g.dx))
    rho = partial_trace(st)
    shapes = []
    real_eigvalsh = np.linalg.eigvalsh
    with monkeypatch.context() as m:
        m.setattr(np.linalg, "eigvalsh", lambda a, **kw: shapes.append(a.shape) or real_eigvalsh(a, **kw))
        rho.weights
    assert shapes == [(r, r) for r in (32, 64, 128, 256, 512)]
    dense = assert_matches_dense(rho)
    assert np.sum(dense > 1e-12) > 256


def test_planted_negative_eigenvalue_reports_dense_value(monkeypatch):
    n = 64
    g = grid_default(n=n)
    rng = np.random.default_rng(3)
    q = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    w = np.full(n, (1.0 + 1e-6) / (n - 1))
    w[0] = -1e-6
    m = (q * w) @ q.conj().T
    m = 0.5 * (m + m.conj().T)
    rho = ReducedDensityMatrix(grid=g, rho=m / g.dx)
    st = gaussian_product_metastate(g, 0.0, 1.2, 0.0)
    reported = structural_checks(st, rho)["min_eigenvalue"]
    assert reported == float(np.linalg.eigvalsh(rho.rho * g.dx)[0])
    np.testing.assert_allclose(reported, -1e-6, rtol=1e-8)

    def fail(a, *args, **kwargs):
        raise np.linalg.LinAlgError("synthetic non-convergence")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    assert math.isnan(structural_checks(st, rho)["min_eigenvalue"])


def test_hand_built_rho_has_weights_and_a_full_report():
    n = 64
    g = grid_default(n=n)
    rng = np.random.default_rng(11)
    q = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    w = np.zeros(n)
    w[:20] = np.exp(-np.arange(20) / 3.0)
    w /= w.sum()
    m = (q * w) @ q.conj().T
    m = 0.5 * (m + m.conj().T)
    rho = ReducedDensityMatrix(grid=g, rho=m / g.dx)
    fast = np.zeros(n)
    fast[: rho.weights.size] = rho.weights[::-1]
    assert np.max(np.abs(fast - w)) <= 1e-12  # w is descending
    vn = decoherence_report(rho, d_cut=2.8).von_neumann_entropy
    p = w[w > 0]
    assert abs(vn - float(-np.sum(p * np.log(p)))) <= 1e-10
    st = gaussian_product_metastate(g, 0.0, 1.2, 0.0)
    assert structural_checks(st, rho)["min_eigenvalue"] > -1e-10
    # rho is the only input: a traced rho and its copy give the same weights
    traced = partial_trace(correlated_two_packet(g, sep=8.0, width=1.2))
    assert np.array_equal(traced.weights, ReducedDensityMatrix(grid=g, rho=traced.rho).weights)
