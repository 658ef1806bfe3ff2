"""Partial trace over the hidden coordinate and what it reveals.

The physical density matrix is rho(x, x') = integral over the hidden
coordinate of Psi(x, .) Psi*(x', .), realized as a plain Riemann sum
with weight dx so it stays consistent with the evolution discretization.
All decoherence quantifiers (purity, entropies, off-diagonal mass) are
computed from the weighted matrix rho dx, whose eigenvalues are the
discrete probability weights.

Purity, coherence, the diagonal, hermiticity and trace are read from rho.
The weights are not: rho dx = (A dx)(A dx)^H for the pair amplitude A,
so they are the squared singular values of A dx, and the leading ones
come from a randomized range finder on that factor (Halko, Martinsson &
Tropp, SIAM Rev. 53, 217, 2011) in O(n^2 r) work for r of them.  The
smallest eigenvalue is bounded from below by one Cholesky factorization
of rho dx + eps I, with no spectrum at all.
"""
from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from functools import cached_property, lru_cache

import numpy as np
import scipy.linalg
from numpy.typing import NDArray

from .core import UNIT_NORM_TOL, Grid1D, MetaState, ValidationError, check_unit_norm

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

    factor is the pair amplitude A with rho = A A^H dx, kept as a read-only
    reference, not a copy; without it the weights are unavailable.  A
    caller that hands over a freshly built rho and keeps no other reference
    to it passes adopt=True to skip the defensive copy.  The snapshot's
    time stays with the state rho was traced from.
    """

    grid: Grid1D
    rho: NDArray[np.complex128] = field(repr=False)
    factor: NDArray[np.complex128] | None = field(default=None, repr=False, compare=False)
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
        herm = float(np.max(np.abs(r - r.conj().T)))
        if herm >= _HERMITICITY_TOL:
            raise ValidationError(f"rho is not Hermitian: max |rho - rho^H| = {herm:.3e}")
        object.__setattr__(self, "hermiticity", herm)
        tr = float(np.trace(r).real) * self.grid.dx
        if abs(tr - 1.0) > UNIT_NORM_TOL:
            raise ValidationError(f"rho trace {tr!r} deviates from 1 beyond {UNIT_NORM_TOL}")
        r.setflags(write=False)
        object.__setattr__(self, "rho", r)
        if self.factor is not None:
            if self.factor.shape != r.shape:
                raise ValidationError(
                    f"factor shape {self.factor.shape} does not match grid n={self.grid.n}"
                )
            view = self.factor.view()
            view.setflags(write=False)
            object.__setattr__(self, "factor", view)

    def trace(self) -> float:
        return float(np.trace(self.rho).real) * self.grid.dx

    @cached_property
    def weights(self) -> NDArray[np.float64]:
        """The leading eigenvalues of rho dx, ascending: the discrete probability weights.

        They are the squared singular values of A dx, from a range finder
        on the factor A.  A fixed-seed complex Gaussian test matrix Omega
        of r columns, drawn from default_rng([n, r]), spans Y = A Omega;
        one power iteration and a QR give the basis Q, and the weights are
        the squared singular values of the r x n matrix Q^H A dx.  r starts
        at 32 and doubles, up to n, until the deficit ||A dx||_F^2 - sum(w)
        = tr(rho dx) - sum(w), which bounds the whole discarded tail, is
        below 1e-12.  Each returned weight is then within that deficit of
        its eigenvalue, and every eigenvalue left out lies below it.

        Computed once per reduced state and shared by every quantifier.
        A failing solver raises LinAlgError on each access; nothing is
        cached then.  A ReducedDensityMatrix without a factor raises
        ValidationError.
        """
        if self.factor is None:
            raise ValidationError("weights need the factor of rho; build rho with partial_trace")
        w = _leading_weights(self.factor, self.grid.dx)
        w.setflags(write=False)
        return w


def _leading_weights(a: NDArray[np.complex128], dx: float) -> NDArray[np.float64]:
    """Ascending squared singular values of A dx whose sum misses ||A dx||_F^2 by less than _EIG_FLOOR."""
    n = a.shape[0]
    total = float(np.vdot(a, a).real) * dx * dx
    r = min(_FIRST_RANK, n)
    while True:
        rng = np.random.default_rng([n, r])  # fixed by (n, r) alone: the same bytes on every run
        omega = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
        q = np.linalg.qr(a @ omega)[0]
        q = np.linalg.qr((q.conj().T @ a).conj().T)[0]  # A^H Q, without conjugating A
        q = np.linalg.qr(a @ q)[0]
        s = np.linalg.svd((q.conj().T @ a) * dx, compute_uv=False)
        w = s * s
        if total - float(np.sum(w)) < _EIG_FLOOR or r == n:
            return w[::-1]
        r = min(2 * r, n)


def partial_trace(state: MetaState) -> ReducedDensityMatrix:
    """Contract the hidden coordinate: rho(x, x') = sum over x~ of Psi Psi* dx.

    The input must be normalized (check_unit_norm); a drifted state is
    rejected, never renormalized.  The result keeps the state's
    amplitudes, read only and not copied, as the factor of rho.
    """
    check_unit_norm(state)
    a = state.amplitudes
    rho = a @ a.conj().T
    rho *= state.grid.dx
    return ReducedDensityMatrix(grid=state.grid, rho=rho, factor=a, adopt=True)


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


@lru_cache(maxsize=8)
def _far_mask(grid: Grid1D, d_cut: float) -> NDArray[np.bool_]:
    """|x - x'| > d_cut over the grid, read only."""
    x = grid.x
    far = np.abs(x[:, None] - x[None, :]) > d_cut
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
        linear_entropy=1.0 - purity,
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
