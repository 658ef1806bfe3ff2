import math

import numpy as np
import pytest

from gravtwin import (
    MetaState,
    ValidationError,
    decoherence_report,
    gaussian_product_metastate,
    gaussian_wavepacket,
    make_grid,
    partial_trace,
    position_probability,
    product_metastate,
    structural_checks,
)


def grid_default(n=256, half_span=16.0):
    return make_grid(-half_span, half_span, n)


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
    assert math.isnan(checks["min_eigenvalue"])
    assert math.isfinite(rep.purity) and math.isfinite(rep.coherence_offdiag)
    np.testing.assert_allclose(rep.purity, 0.5, atol=1e-6)
    assert checks["trace_error"] < 1e-10
    # a failure is not cached: once the solver works, the spectrum appears
    monkeypatch.undo()
    np.testing.assert_allclose(rho.weights.sum(), 1.0, atol=1e-10)

