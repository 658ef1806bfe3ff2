"""Partial trace over the hidden coordinate and what it reveals.

The physical density matrix is rho(x, x') = integral over the hidden
coordinate of Psi(x, .) Psi*(x', .), realized as a plain Riemann sum
with weight dx so it stays consistent with the evolution discretization.
All decoherence quantifiers (purity, entropies, off-diagonal mass) are
computed from the weighted matrix rho dx, whose eigenvalues are the
discrete probability weights.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.typing import NDArray

from .core import UNIT_NORM_TOL, Grid1D, MetaState, ValidationError

_HERMITICITY_TOL = 1e-10
_EIG_FLOOR = 1e-12  # weights below this are excluded from p ln p


@dataclass(frozen=True)
class ReducedDensityMatrix:
    grid: Grid1D
    rho: NDArray[np.complex128] = field(repr=False)
    time: float = 0.0
    hermiticity: float = field(init=False)  # max |rho - rho^H|, measured once when validated

    def __post_init__(self) -> None:
        r = np.array(self.rho, dtype=np.complex128, copy=True, order="C")
        if r.shape != (self.grid.n, self.grid.n):
            raise ValidationError(
                f"rho shape {r.shape} does not match grid n={self.grid.n}"
            )
        if not np.all(np.isfinite(r.view(np.float64))):
            raise ValidationError("rho contains non-finite entries")
        herm = float(np.max(np.abs(r - r.conj().T)))
        if herm >= _HERMITICITY_TOL:
            raise ValidationError(f"rho is not Hermitian: max |rho - rho^H| = {herm:.3e}")
        object.__setattr__(self, "hermiticity", herm)
        tr = float(np.trace(r).real) * self.grid.dx
        if abs(tr - 1.0) > UNIT_NORM_TOL:
            raise ValidationError(f"rho trace {tr!r} deviates from 1 beyond {UNIT_NORM_TOL}")
        r.setflags(write=False)
        object.__setattr__(self, "rho", r)

    def trace(self) -> float:
        return float(np.trace(self.rho).real) * self.grid.dx

    @cached_property
    def weights(self) -> NDArray[np.float64]:
        """Ascending eigenvalues of rho dx: the discrete probability weights.

        Computed once per reduced state and shared by every quantifier.
        A failing eigensolver raises LinAlgError on each access; nothing
        is cached then.
        """
        w = np.linalg.eigvalsh(self.rho * self.grid.dx)
        w.setflags(write=False)
        return w


def partial_trace(state: MetaState) -> ReducedDensityMatrix:
    """Contract the hidden coordinate: rho(x, x') = sum over x~ of Psi Psi* dx.

    The input must be normalized; a drifted state is rejected rather
    than silently renormalized, because a drift means the evolution went
    wrong and rescaling would bury it.
    """
    nrm = state.norm()
    if abs(nrm - 1.0) > UNIT_NORM_TOL:
        raise ValidationError(
            f"partial_trace expects a normalized state, got norm {nrm!r}"
        )
    a = state.amplitudes
    rho = (a @ a.conj().T) * state.grid.dx
    return ReducedDensityMatrix(grid=state.grid, rho=rho, time=state.time)


def position_probability(rho: ReducedDensityMatrix) -> NDArray[np.float64]:
    """Pr(x) = rho(x, x); integrates to 1 with weight dx."""
    return np.ascontiguousarray(np.diagonal(rho.rho).real)


@dataclass(frozen=True)
class DecoherenceReport:
    purity: float
    linear_entropy: float
    von_neumann_entropy: float
    coherence_offdiag: float
    position_density: NDArray[np.float64] = field(repr=False)


def decoherence_report(rho: ReducedDensityMatrix, d_cut: float) -> DecoherenceReport:
    """Decoherence quantifiers of one reduced state.

    d_cut is the separation beyond which |rho(x, x')| counts as
    long-range coherence; pass 4x the initial packet width unless there
    is a reason not to.  The entropy reads the spectrum cached on rho.
    If the eigensolver fails, only the von Neumann entropy is abandoned
    (NaN); the rest of the report survives.
    """
    if not (math.isfinite(d_cut) and d_cut > 0):
        raise ValidationError(f"d_cut must be finite and > 0, got {d_cut!r}")
    dx = rho.grid.dx
    purity = float(np.sum(np.abs(rho.rho) ** 2)) * dx * dx
    try:
        p = rho.weights
        p = p[p > _EIG_FLOOR]
        vn = float(-np.sum(p * np.log(p)))
    except np.linalg.LinAlgError:
        vn = float("nan")
    x = rho.grid.x
    far = np.abs(x[:, None] - x[None, :]) > d_cut
    coherence = float(np.sum(np.abs(rho.rho)[far])) * dx * dx
    return DecoherenceReport(
        purity=purity,
        linear_entropy=1.0 - purity,
        von_neumann_entropy=vn,
        coherence_offdiag=coherence,
        position_density=position_probability(rho),
    )


def structural_checks(state: MetaState, rho: ReducedDensityMatrix | None = None) -> dict[str, float]:
    """Scalar health indicators for one snapshot of a run.

    Returns norm drift, exchange asymmetry, Hermiticity defect, trace
    error, and the smallest probability weight (negative values flag a
    positivity violation beyond rounding).
    """
    if rho is None:
        rho = partial_trace(state)
    try:
        min_eig = float(rho.weights[0])
    except np.linalg.LinAlgError:
        min_eig = float("nan")
    norm = state.norm()
    return {
        "norm": norm,
        "norm_drift": abs(norm - 1.0),
        "exchange_asymmetry": state.exchange_asymmetry(),
        "hermiticity": rho.hermiticity,
        "trace_error": abs(rho.trace() - 1.0),
        "min_eigenvalue": min_eig,
    }
