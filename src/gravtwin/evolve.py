"""Split-step spectral evolution of the pair amplitude.

One step is the symmetric composition

    exp(-i V dt / 2 hbar) . exp(-i K dt / hbar) . exp(-i V dt / 2 hbar)

with V = V_ext(x) + V_ext(x~) + V_pair(|x - x~|) applied pointwise in
position space and the kinetic phase for both coordinates applied in one
2D transform pass.  Second order in dt; exactly norm-preserving under
periodic boundaries.

A companion first-order engine propagates the coupling-free channel and
the single-insertion correction channel side by side, for perturbative
cross-checks against the full evolution.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np
import scipy.fft as sfft
from numpy.typing import NDArray

from .core import ExternalPotential, Grid1D, MetaState, ValidationError
from .potential import PairPotential

WORKERS_ENV = "GRAVTWIN_WORKERS"


class CFLViolation(ValidationError):
    """Time step too large for the grid's kinetic band."""


class NumericalAbort(RuntimeError):
    """Non-finite amplitudes detected mid-run."""


def fft_workers() -> int:
    """Worker-thread count for the transforms, from the environment.

    Results are bit-identical for any worker count: threading only
    splits independent transform lines, never reorders a reduction.
    """
    raw = os.environ.get(WORKERS_ENV, "1")
    try:
        w = int(raw)
    except ValueError:
        raise ValidationError(f"{WORKERS_ENV} must be an integer, got {raw!r}") from None
    if w < 1:
        raise ValidationError(f"{WORKERS_ENV} must be >= 1, got {w}")
    return w


@dataclass(frozen=True)
class EvolutionConfig:
    dt: float
    steps: int
    splitting: str = "strang"
    boundary: str = "periodic"
    mask_width: float = 0.125    # fraction of the domain per side, absorbing only
    mask_strength: float = 1.0   # 1/time, absorbing only
    record_every: int = 1

    def __post_init__(self) -> None:
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValidationError(f"dt must be finite and > 0, got {self.dt!r}")
        if not (isinstance(self.steps, int) and self.steps >= 1):
            raise ValidationError(f"steps must be an integer >= 1, got {self.steps!r}")
        if self.splitting != "strang":
            raise ValidationError(f"unsupported splitting {self.splitting!r}")
        if self.boundary not in ("periodic", "absorbing"):
            raise ValidationError(f"unknown boundary {self.boundary!r}")
        if self.boundary == "absorbing":
            if not (0.0 < self.mask_width < 0.25):
                raise ValidationError(
                    f"mask_width must lie in (0, 0.25), got {self.mask_width!r}"
                )
            if not (math.isfinite(self.mask_strength) and self.mask_strength > 0):
                raise ValidationError(
                    f"mask_strength must be finite and > 0, got {self.mask_strength!r}"
                )
        if not (isinstance(self.record_every, int) and self.record_every >= 1):
            raise ValidationError(
                f"record_every must be an integer >= 1, got {self.record_every!r}"
            )

    def check_stability(self, grid: Grid1D, mass: float, hbar: float) -> None:
        """Phase-wrap budget: dt E_kin_max / hbar < pi / 4 with E_kin_max = hbar^2 k_max^2 / 2m."""
        k_max = math.pi / grid.dx
        e_max = (hbar * k_max) ** 2 / (2.0 * mass)
        budget = self.dt * e_max / hbar
        if budget >= math.pi / 4.0:
            raise CFLViolation(
                f"dt={self.dt!r} unstable for this grid: dt*E_kin_max/hbar = {budget:.6g} "
                f">= pi/4; largest stable dt is {math.pi / 4.0 * hbar / e_max:.6g}"
            )


@dataclass(frozen=True)
class EvolutionRecord:
    times: NDArray[np.float64]
    norms: NDArray[np.float64]
    final_state: MetaState
    reduced_observables: Sequence[Mapping[str, float]] | None = None
    snapshots: Sequence[MetaState] | None = field(default=None, repr=False)


def _absorber_1d(grid: Grid1D, width_fraction: float) -> NDArray[np.float64]:
    """cos^2 absorption profile: 0 at the inner mask edge, 1 at the wall."""
    w = width_fraction * grid.span
    wall = np.minimum(grid.x - grid.x_min, grid.x_max - grid.x)
    prof = np.where(wall < w, np.cos(0.5 * math.pi * wall / w) ** 2, 0.0)
    return prof


def _ext_diag(grid: Grid1D, pot_ext: ExternalPotential, pair: PairPotential) -> NDArray[np.float64]:
    """V_ext(x) + V_ext(x~) over the pair grid."""
    v_ext = pot_ext.sample(grid, pair.species, pair.units)
    return v_ext[:, None] + v_ext[None, :]


def _phases(
    grid: Grid1D,
    v_diag: NDArray[np.float64],
    mass: float,
    hbar: float,
    dt: float,
) -> tuple[NDArray[np.complex128], NDArray[np.complex128]]:
    """Half-step potential phase and full-step kinetic phase of one Strang step."""
    k2 = grid.momentum_grid**2
    half_v = np.exp(-0.5j * dt / hbar * v_diag)
    full_k = np.exp(-0.5j * hbar * dt / mass * (k2[:, None] + k2[None, :]))
    return half_v, full_k


def _require_normalized(state: MetaState) -> None:
    nrm = state.norm()
    if abs(nrm - 1.0) > 1e-8:
        raise ValidationError(f"expected a normalized state, got norm {nrm!r}")


def evolve(
    state: MetaState,
    pot_ext: ExternalPotential,
    pair: PairPotential,
    cfg: EvolutionConfig,
    observer: Callable[[MetaState], Mapping[str, float]] | None = None,
    keep_snapshots: bool = False,
) -> EvolutionRecord:
    """Propagate the pair state for cfg.steps steps of cfg.dt.

    The external potential acts identically on both coordinates; the
    pair potential couples them through the separation.  Amplitudes are
    checked for blow-up at every record point; non-finite values abort
    the run with a step diagnostic.  With the absorbing boundary, each
    step ends with the damping factor exp(-strength dt prof(x)) applied
    in both coordinates (profile from _absorber_1d).
    """
    _require_normalized(state)
    grid = state.grid
    cfg.check_stability(grid, pair.species.mass, pair.units.hbar)
    half_v, full_k = _phases(
        grid,
        _ext_diag(grid, pot_ext, pair) + pair.evaluate_on_grid(grid),
        pair.species.mass,
        pair.units.hbar,
        cfg.dt,
    )

    damp = None
    if cfg.boundary == "absorbing":
        prof = _absorber_1d(grid, cfg.mask_width)
        d1 = np.exp(-cfg.mask_strength * cfg.dt * prof)
        damp = d1[:, None] * d1[None, :]

    w = fft_workers()
    psi = np.array(state.amplitudes, dtype=np.complex128, order="C")
    record_points = sorted({0, cfg.steps} | set(range(0, cfg.steps + 1, cfg.record_every)))

    times: list[float] = []
    norms: list[float] = []
    observed: list[Mapping[str, float]] = []
    snaps: list[MetaState] = []

    def record(step: int) -> MetaState:
        t = state.time + step * cfg.dt
        if not np.all(np.isfinite(psi.view(np.float64))):
            bad = int(np.count_nonzero(~np.isfinite(psi.view(np.float64))))
            raise NumericalAbort(
                f"non-finite amplitudes at step {step} (t={t!r}): {bad} bad entries"
            )
        snap = MetaState(grid=grid, amplitudes=psi, time=t)
        times.append(t)
        norms.append(snap.norm())
        if observer is not None:
            observed.append(observer(snap))
        if keep_snapshots:
            snaps.append(snap)
        return snap

    last = record(0)
    for step in range(1, cfg.steps + 1):
        psi *= half_v
        psi = sfft.fft2(psi, workers=w, overwrite_x=True)
        psi *= full_k
        psi = sfft.ifft2(psi, workers=w, overwrite_x=True)
        psi *= half_v
        if damp is not None:
            psi *= damp
        if step in record_points:
            last = record(step)

    return EvolutionRecord(
        times=np.array(times),
        norms=np.array(norms),
        final_state=last,
        reduced_observables=observed if observer is not None else None,
        snapshots=snaps if keep_snapshots else None,
    )


def dyson_first_order(
    state0: MetaState,
    pot_ext: ExternalPotential,
    pair: PairPotential,
    cfg: EvolutionConfig,
) -> tuple[MetaState, MetaState]:
    """Coupling-free channel plus the single-insertion correction channel.

    Returns (psi0, psi1) at the final time: psi0 is the evolution with
    the pair coupling removed, psi1 the first-order correction

        psi1 = -(i/hbar) * sum_k U0(t_b, t_k) V_pair U0(t_k, t_a) psi(t_a) dt

    discretised as the derivative in the coupling of the Strang step that
    evolve applies.  The coupling enters that step only through its two
    half-step potential phases exp(-i (V_ext + V_pair) dt / 2 hbar), one at
    each end; the kinetic phase carries none.  So each step adds a half
    insertion -i V_pair dt / (2 hbar) psi0 at both of its ends.  psi0 is
    then exactly the coupling-free run of evolve, psi1 exactly the
    first-order term of the full discrete map, and the residual against
    evolve is purely second order in the coupling: no first-order
    splitting mismatch is left over.  psi1 is linear in the coupling, so
    scaling G by a power of two scales psi1 by the same power, bit for
    bit.  The two channels share one stacked transform pair per step.
    Requires periodic boundaries and a perturbatively small coupling
    (|V_pair(0)| steps dt / hbar < 0.1).
    """
    _require_normalized(state0)
    grid = state0.grid
    cfg.check_stability(grid, pair.species.mass, pair.units.hbar)
    if cfg.boundary != "periodic":
        raise ValidationError("dyson_first_order requires periodic boundaries")
    hbar = pair.units.hbar
    action_est = abs(pair.evaluate(0.0)) * cfg.steps * cfg.dt / hbar
    if action_est >= 0.1:
        raise ValidationError(
            f"coupling too large for a first-order split: |V(0)| T / hbar = {action_est:.3g} >= 0.1"
        )

    d0, full_k = _phases(grid, _ext_diag(grid, pot_ext, pair), pair.species.mass, hbar, cfg.dt)
    half_insert = (-0.5j * cfg.dt / hbar) * pair.evaluate_on_grid(grid)

    w = fft_workers()
    z = np.zeros((2, grid.n, grid.n), dtype=np.complex128)  # (psi0, psi1)
    z[0] = state0.amplitudes
    for _ in range(cfg.steps):
        z[1] += half_insert * z[0]
        z *= d0
        z = sfft.fft2(z, workers=w, overwrite_x=True)
        z *= full_k
        z = sfft.ifft2(z, workers=w, overwrite_x=True)
        z *= d0
        z[1] += half_insert * z[0]
    phi, chi = z

    t_end = state0.time + cfg.steps * cfg.dt
    for name, arr in (("psi0", phi), ("psi1", chi)):
        if not np.all(np.isfinite(arr.view(np.float64))):
            raise NumericalAbort(f"non-finite amplitudes in {name} at t={t_end!r}")
    return (
        MetaState(grid=grid, amplitudes=phi, time=t_end),
        MetaState(grid=grid, amplitudes=chi, time=t_end),
    )


def first_order_position_density(psi0: MetaState, psi1: MetaState) -> NDArray[np.float64]:
    """Physical-coordinate density through first order in the coupling.

    Pr(X) = integral over the hidden coordinate of |psi0|^2 + 2 Re(psi0 psi1*);
    the correction integrates to zero, so the total mass stays 1.
    """
    if psi0.grid is not psi1.grid and psi0.grid != psi1.grid:
        raise ValidationError("psi0 and psi1 must share a grid")
    a0 = psi0.amplitudes
    a1 = psi1.amplitudes
    dens = np.abs(a0) ** 2 + 2.0 * (a0 * np.conj(a1)).real
    return dens.sum(axis=1) * psi0.grid.dx
