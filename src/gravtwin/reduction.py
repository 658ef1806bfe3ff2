"""Partial trace over the hidden coordinate and what it reveals.

The physical density matrix is rho(x, x') = integral over the hidden
coordinate of Psi(x, .) Psi*(x', .), realized as a plain Riemann sum
with weight dx so it stays consistent with the evolution discretization.
All decoherence quantifiers (purity, entropies, off-diagonal mass) are
computed from the weighted matrix rho dx, whose eigenvalues are the
discrete probability weights.

Every quantifier is read from rho alone.  The leading weights come from
a randomized range finder on rho (Halko, Martinsson & Tropp, SIAM Rev.
53, 217, 2011) with one power step and Rayleigh-Ritz, in O(n^2 r) work
for r of them.  The smallest eigenvalue is bounded from below by one
Cholesky factorization of rho dx + eps I, with no spectrum at all.
"""
from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from functools import cached_property, lru_cache

import numpy as np
import scipy.linalg
from numpy.typing import NDArray

from .core import UNIT_NORM_TOL, Grid1D, MetaState, ValidationError, check_unit_norm, max_skew

_HERMITICITY_TOL = 1e-10
# Weights below this are excluded from p ln p.  The range finder stops once
# the mass it has not captured is below it too, so every weight it misses
# would have been excluded anyway.
_EIG_FLOOR = 1e-12
_FIRST_RANK = 32  # range finder: first number of test vectors, doubled until the tail is below _EIG_FLOOR
_CHOLESKY_SHIFT = 1e-11  # eps of the positivity certificate
_UNIT_ROUNDOFF = 2.0**-53


@dataclass(frozen=True)
class ReducedDensityMatrix:
    """rho on the grid, validated and read only.

    A caller that hands over a freshly built rho and keeps no other reference
    to it passes adopt=True to skip the defensive copy.  The snapshot's
    time stays with the state rho was traced from.
    """

    grid: Grid1D
    rho: NDArray[np.complex128] = field(repr=False)
    hermiticity: float = field(init=False)  # max |rho - rho^H|, measured once when validated
    adopt: InitVar[bool] = False

    def __post_init__(self, adopt: bool) -> None:
        if adopt:
            r = np.asarray(self.rho, dtype=np.complex128, order="C")
        else:
            r = np.array(self.rho, dtype=np.complex128, copy=True, order="C")
        if r.shape != (self.grid.n, self.grid.n):
            raise ValidationError(
                f"rho shape {r.shape} does not match grid n={self.grid.n}"
            )
        if not np.all(np.isfinite(r.view(np.float64))):
            raise ValidationError("rho contains non-finite entries")
        herm = max_skew(r, conjugate=True)
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
        """The leading eigenvalues of rho dx, ascending: the discrete probability weights.

        A fixed-seed complex Gaussian test matrix Omega of r columns,
        drawn from default_rng([n, r]), gives the basis Q = qr(rho Omega),
        refined by one power step Q = qr(rho Q); the weights are the Ritz
        values, the eigenvalues of the r x r matrix Q^H rho Q dx.  r starts
        at 32 and doubles, up to n, until the deficit tr(rho dx) - sum(w)
        is below 1e-12.  Ritz values interlace with the eigenvalues, so
        each returned weight is then within that deficit of its
        eigenvalue, and every eigenvalue left out lies below it.

        Computed once per reduced state and shared by every quantifier.
        A failing solver raises LinAlgError on each access; nothing is
        cached then.
        """
        w = _leading_weights(self.rho, self.grid.dx)
        w.setflags(write=False)
        return w


@lru_cache(maxsize=8)
def _test_matrix(n: int, r: int) -> NDArray[np.complex128]:
    """The range finder's n x r complex Gaussian Omega, read only.

    Drawn from default_rng([n, r]), so fixed by (n, r) alone: the same
    bytes on every run.
    """
    rng = np.random.default_rng([n, r])
    omega = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
    omega.setflags(write=False)
    return omega


def _leading_weights(rho: NDArray[np.complex128], dx: float) -> NDArray[np.float64]:
    """Ascending Ritz values of rho dx whose sum misses tr(rho dx) by less than _EIG_FLOOR."""
    n = rho.shape[0]
    total = float(np.trace(rho).real) * dx
    r = min(_FIRST_RANK, n)
    while True:
        q = np.linalg.qr(rho @ _test_matrix(n, r))[0]
        q = np.linalg.qr(rho @ q)[0]
        w = np.linalg.eigvalsh((q.conj().T @ (rho @ q)) * dx)
        if total - float(np.sum(w)) < _EIG_FLOOR or r == n:
            return w
        r = min(2 * r, n)


def partial_trace(state: MetaState) -> ReducedDensityMatrix:
    """Contract the hidden coordinate: rho(x, x') = sum over x~ of Psi Psi* dx.

    The input must be normalized (check_unit_norm); a drifted state is
    rejected, never renormalized.

    rho = A A^H dx comes from two real products and is Hermitian by
    construction.  With F the n x 2n real view of A (real and imaginary
    parts interleaved, no copy), Re rho = F F^T dx, which numpy hands to
    the symmetric rank-k update, so it is exactly symmetric.  Im rho =
    (D - D^T) dx with D = Im A (Re A)^T, one real product on contiguous
    copies of the two parts, so it is exactly antisymmetric.
    """
    check_unit_norm(state)
    a = state.amplitudes
    n, dx = state.grid.n, state.grid.dx
    f = a.view(np.float64)
    real = f @ f.T
    parts = f.reshape(n, n, 2).transpose(2, 0, 1).copy()  # Re A, Im A
    d = parts[1] @ parts[0].T
    del parts
    rho = np.empty((n, n), dtype=np.complex128)
    np.multiply(real, dx, out=rho.real)
    del real
    imag = rho.imag
    np.subtract(d, d.T, out=imag)
    imag *= dx
    return ReducedDensityMatrix(grid=state.grid, rho=rho, adopt=True)


def position_probability(rho: ReducedDensityMatrix) -> NDArray[np.float64]:
    """Pr(x) = rho(x, x); integrates to 1 with weight dx."""
    return np.ascontiguousarray(np.diagonal(rho.rho).real)


@dataclass(frozen=True)
class DecoherenceReport:
    purity: float
    von_neumann_entropy: float
    coherence_offdiag: float
    position_density: NDArray[np.float64] = field(repr=False)

    @property
    def linear_entropy(self) -> float:
        return 1.0 - self.purity


@lru_cache(maxsize=8)
def _far_mask(grid: Grid1D, d_cut: float) -> NDArray[np.bool_]:
    """|x - x'| > d_cut over the grid, read only."""
    dist = np.subtract.outer(grid.x, grid.x)
    far = np.abs(dist, out=dist) > d_cut
    far.setflags(write=False)
    return far


def decoherence_report(rho: ReducedDensityMatrix, d_cut: float) -> DecoherenceReport:
    """Decoherence quantifiers of one reduced state.

    d_cut is the separation beyond which |rho(x, x')| counts as
    long-range coherence; pass 4x the initial packet width unless there
    is a reason not to.  The entropy reads the weights cached on rho.
    If their solver fails, only the von Neumann entropy is abandoned
    (NaN); the rest of the report survives.
    """
    if not (math.isfinite(d_cut) and d_cut > 0):
        raise ValidationError(f"d_cut must be finite and > 0, got {d_cut!r}")
    dx = rho.grid.dx
    magnitude = np.abs(rho.rho)
    purity = float(np.sum(magnitude**2)) * dx * dx
    try:
        p = rho.weights
        p = p[p > _EIG_FLOOR]
        vn = float(-np.sum(p * np.log(p)))
    except np.linalg.LinAlgError:
        vn = float("nan")
    coherence = float(np.sum(magnitude[_far_mask(rho.grid, d_cut)])) * dx * dx
    return DecoherenceReport(
        purity=purity,
        von_neumann_entropy=vn,
        coherence_offdiag=coherence,
        position_density=position_probability(rho),
    )


def _min_eigenvalue_bound(rho: ReducedDensityMatrix) -> float:
    """A certified lower bound on the smallest eigenvalue of rho dx, or that eigenvalue.

    M = rho dx + eps I is built in one fresh array and factorized in
    place (its transpose is Fortran-ordered and conj(M), whose eigenvalues
    are M's).  Like eigvalsh, the factorization reads one triangle of rho.
    If it completes, the computed factor R satisfies R^H R = M + dM with
    |dM| <= gamma |R^H| |R| (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., Thm 10.3; Thm 10.7 is why this eps suffices), and
    ||R||_F^2 <= tr(M) / (1 - gamma).  So M + dM is positive semidefinite
    and every eigenvalue of rho dx is at least

        -(eps + 2 gamma tr(M)),   gamma = k u / (1 - k u),  k = 2(n + 1),

    with u the unit roundoff; k is doubled for complex arithmetic, and the
    factor 2 covers 1 / (1 - gamma) and the rounding of the shift.  If the
    factorization fails, the smallest eigenvalue of rho dx is computed
    densely, so a real positivity violation is reported at its value; NaN
    if that eigensolver fails too.
    """
    n = rho.grid.n
    m = rho.rho * rho.grid.dx
    m.flat[:: n + 1] += _CHOLESKY_SHIFT
    trace = float(np.trace(m).real)
    try:
        scipy.linalg.cholesky(m.T, lower=False, overwrite_a=True, check_finite=False)
    except np.linalg.LinAlgError:
        del m
        try:
            return float(np.linalg.eigvalsh(rho.rho * rho.grid.dx)[0])
        except np.linalg.LinAlgError:
            return float("nan")
    k = 2 * (n + 1)
    gamma = k * _UNIT_ROUNDOFF / (1.0 - k * _UNIT_ROUNDOFF)
    return -(_CHOLESKY_SHIFT + 2.0 * gamma * trace)


def structural_checks(state: MetaState, rho: ReducedDensityMatrix | None = None) -> dict[str, float]:
    """Scalar health indicators for one snapshot of a run.

    Returns norm drift, exchange asymmetry, Hermiticity defect, trace
    error, and min_eigenvalue: a certified lower bound on the smallest
    probability weight, or that weight itself when the certificate fails
    (negative values beyond rounding flag a positivity violation).
    """
    if rho is None:
        rho = partial_trace(state)
    norm = state.norm()
    return {
        "norm": norm,
        "norm_drift": abs(norm - 1.0),
        "exchange_asymmetry": state.exchange_asymmetry(),
        "hermiticity": rho.hermiticity,
        "trace_error": abs(rho.trace() - 1.0),
        "min_eigenvalue": _min_eigenvalue_bound(rho),
    }
