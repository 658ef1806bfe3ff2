"""Split-step spectral evolution of the pair amplitude.

One step is the symmetric composition

    exp(-i V dt / 2 hbar) . exp(-i K dt / hbar) . exp(-i V dt / 2 hbar)

with V = V_ext(x) + V_ext(x~) + V_pair(|x - x~|) applied pointwise in
position space and the kinetic phase for both coordinates applied in one
2D transform pass.  Second order in dt; exactly norm-preserving on the
periodic grid.

There is one engine per type of state, each with one such step applied
to a stack of channels.  A MetaState is stepped on the n x n pair grid.
A SeparatedState is stepped as its centre of mass X = (x + x~)/2 (mass
2m, feeling 2 V_ext(X)) and separation r = x - x~ (mass m/2, feeling
[V_ext(r) + V_ext(-r)] / 4 + V_pair(|r|)): every external kind is a
polynomial of degree <= 2 with V_ext(0) = 0, so V above is exactly that
sum and the step factorises into one 1D step per coordinate.  The pair
amplitude is gathered only at record points that something reads.

evolve runs the coupled step.  dyson_first_order runs the same engine's
coupling-free step, with the coupling's derivative inserted around it,
to carry the coupling-free channel and the single-insertion correction
channel side by side for perturbative cross-checks.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np
import scipy.fft as sfft
from numpy.typing import NDArray

from .core import (
    ExternalPotential,
    Grid1D,
    MetaState,
    SeparatedState,
    ValidationError,
    check_unit_norm,
    separated_axes,
)
from .potential import PERTURBATIVE_WINDOW, PairPotential

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
    record_every: int = 1

    def __post_init__(self) -> None:
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValidationError(f"dt must be finite and > 0, got {self.dt!r}")
        if not (isinstance(self.steps, int) and self.steps >= 1):
            raise ValidationError(f"steps must be an integer >= 1, got {self.steps!r}")
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
    final_state: MetaState
    reduced_observables: Sequence[Any] | None = None  # one observer result per record


def _non_finite(arr: NDArray) -> int:
    return int(np.count_nonzero(~np.isfinite(arr.view(np.float64))))


class _GridEngine:
    """The 2D engine: n x n pair amplitudes, stacked as channels on a leading axis."""

    def __init__(
        self, state: MetaState, pot_ext: ExternalPotential, pair: PairPotential, cfg: EvolutionConfig,
        coupled: bool,
    ) -> None:
        self.workers = fft_workers()
        self.state, self.pair = state, pair
        grid, hbar = state.grid, pair.units.hbar
        v_ext = pot_ext.sample(grid.x, pair.species)
        v_diag = v_ext[:, None] + v_ext[None, :]
        if coupled:
            v_diag = v_diag + self.pair_samples()
        k2 = grid.momentum_grid**2
        self.half_v = np.exp(-0.5j * cfg.dt / hbar * v_diag)
        self.full_k = np.exp(-0.5j * hbar * cfg.dt / pair.species.mass * (k2[:, None] + k2[None, :]))

    def pair_samples(self) -> NDArray[np.float64]:
        """V_pair(|x - x~|) over the pair grid."""
        return self.pair.evaluate_on_grid(self.state.grid)

    def channels(self, extra: int) -> NDArray[np.complex128]:
        """The start amplitude as channel 0, then `extra` zero channels."""
        n = self.state.grid.n
        z = np.zeros((1 + extra, n, n), dtype=np.complex128)
        z[0] = self.state.amplitudes
        return z

    def step(self, z: NDArray[np.complex128]) -> NDArray[np.complex128]:
        z *= self.half_v
        z = sfft.fft2(z, workers=self.workers, overwrite_x=True)
        z *= self.full_k
        z = sfft.ifft2(z, workers=self.workers, overwrite_x=True)
        z *= self.half_v
        return z

    def gather(self, z: NDArray[np.complex128], t: float) -> MetaState:
        """The pair amplitude in the last channel."""
        return MetaState(grid=self.state.grid, amplitudes=z[-1], time=t)


class _SeparatedEngine:
    """The separated engine: centre-of-mass factors in channel 0, separation factors after it.

    Each channel is (K, 2n).  X sits on 2n points at dx/2 with mass 2m and
    feels 2 V_ext(X); r sits on 2n points at dx with mass m/2 and feels
    [V_ext(r) + V_ext(-r)] / 4, plus V_pair(|r|) when coupled.  A channel
    whose potential is zero everywhere gets no phase at all.
    """

    def __init__(
        self, state: SeparatedState, pot_ext: ExternalPotential, pair: PairPotential, cfg: EvolutionConfig,
        coupled: bool,
    ) -> None:
        self.workers = fft_workers()
        self.state, self.pair = state, pair
        grid, hbar, mass = state.grid, pair.units.hbar, pair.species.mass
        X, r = separated_axes(grid)
        v_com = 2.0 * pot_ext.sample(X, pair.species)
        v_rel = 0.25 * (pot_ext.sample(r, pair.species) + pot_ext.sample(-r, pair.species))
        if coupled:
            v_rel = v_rel + self.pair_samples()
        self.half_com, self.half_rel = (
            np.exp(-0.5j * cfg.dt / hbar * v) if np.any(v) else None for v in (v_com, v_rel)
        )
        k_com = 2.0 * math.pi * sfft.fftfreq(2 * grid.n, d=0.5 * grid.dx)
        k_rel = 2.0 * math.pi * sfft.fftfreq(2 * grid.n, d=grid.dx)
        self.kin_com = np.exp(-0.5j * hbar * cfg.dt / (2.0 * mass) * k_com**2)
        self.kin_rel = np.exp(-0.5j * hbar * cfg.dt / (0.5 * mass) * k_rel**2)

    def pair_samples(self) -> NDArray[np.float64]:
        """V_pair(|r|) on the separation samples."""
        return self.pair.evaluate(np.abs(separated_axes(self.state.grid)[1]))

    def channels(self, extra: int) -> NDArray[np.complex128]:
        """The start factors as channels 0 (com) and 1 (rel), then `extra` zero channels."""
        z = np.zeros((2 + extra,) + self.state.com.shape, dtype=np.complex128)
        z[0], z[1] = self.state.com, self.state.rel
        return z

    def _half_phases(self, z: NDArray[np.complex128]) -> None:
        if self.half_com is not None:
            z[0] *= self.half_com
        if self.half_rel is not None:
            z[1:] *= self.half_rel

    def step(self, z: NDArray[np.complex128]) -> NDArray[np.complex128]:
        self._half_phases(z)
        z = sfft.fft(z, workers=self.workers, overwrite_x=True)
        z[0] *= self.kin_com
        z[1:] *= self.kin_rel
        z = sfft.ifft(z, workers=self.workers, overwrite_x=True)
        self._half_phases(z)
        return z

    def gather(self, z: NDArray[np.complex128], t: float) -> MetaState:
        """The pair amplitude of the centre-of-mass channel times the last channel."""
        return SeparatedState(grid=self.state.grid, com=z[0], rel=z[-1], time=t).metastate()


def _engine_for(
    state: MetaState | SeparatedState, pot_ext: ExternalPotential, pair: PairPotential, cfg: EvolutionConfig
) -> tuple[type[_GridEngine] | type[_SeparatedEngine], MetaState]:
    """The engine for the state's type and the start on the pair grid, once the shared checks pass.

    Every start must be normalized and dt must pass the CFL guard.
    """
    if isinstance(state, SeparatedState):
        engine, start = _SeparatedEngine, state.metastate()
    else:
        engine, start = _GridEngine, state
    check_unit_norm(start)
    cfg.check_stability(state.grid, pair.species.mass, pair.units.hbar)
    return engine, start


def evolve(
    state: MetaState | SeparatedState,
    pot_ext: ExternalPotential,
    pair: PairPotential,
    cfg: EvolutionConfig,
    observer: Callable[[MetaState], Any] | None = None,
) -> EvolutionRecord:
    """Propagate the pair state for cfg.steps steps of cfg.dt.

    The external potential acts identically on both coordinates; the
    pair potential couples them through the separation.  Amplitudes are
    checked for blow-up at every record point; non-finite values abort
    the run with a step diagnostic.

    A SeparatedState is stepped by the separated engine.  The observer
    and the final state see the gathered MetaState; mass outside the
    n x n box is dropped there.  The pair amplitude is gathered only
    where something reads it: at every record point when there is an
    observer, else at the last step only.
    """
    build, start = _engine_for(state, pot_ext, pair, cfg)
    engine = build(state, pot_ext, pair, cfg, coupled=True)
    psi = engine.channels(extra=0)

    times: list[float] = []
    observed: list[Any] = []

    def record(step: int, snap: MetaState | None = None) -> MetaState | None:
        t = state.time + step * cfg.dt
        bad = _non_finite(psi)
        if bad:
            raise NumericalAbort(
                f"non-finite amplitudes at step {step} (t={t!r}): {bad} bad entries"
            )
        times.append(t)
        if observer is None and step < cfg.steps:
            return snap
        if snap is None:
            snap = engine.gather(psi, t)
        if observer is not None:
            observed.append(observer(snap))
        return snap

    record(0, start)
    for step in range(1, cfg.steps + 1):
        psi = engine.step(psi)
        if step % cfg.record_every == 0 or step == cfg.steps:
            last = record(step)

    return EvolutionRecord(
        times=np.array(times),
        final_state=last,
        reduced_observables=observed if observer is not None else None,
    )


def dyson_first_order(
    state0: MetaState | SeparatedState,
    pot_ext: ExternalPotential,
    pair: PairPotential,
    cfg: EvolutionConfig,
) -> tuple[MetaState, MetaState]:
    """Coupling-free channel plus the single-insertion correction channel.

    Returns (psi0, psi1) at the final time: psi0 is the evolution with
    the pair coupling removed, psi1 the first-order correction

        psi1 = -(i/hbar) * sum_k U0(t_b, t_k) V_pair U0(t_k, t_a) psi(t_a) dt

    discretised as the derivative in the coupling of the Strang step that
    evolve applies.  Both are stepped by the engine evolve picks for the
    state, with the coupling left out of its step.  The coupling enters
    evolve's step only through its two half-step potential phases
    exp(-i (V_ext + V_pair) dt / 2 hbar), one at each end; the kinetic
    phase carries none.  So around each coupling-free step a half
    insertion -i V_pair dt / (2 hbar) psi0 is added to psi1 at both ends.
    psi1 is the last channel of the engine's stack and is fed from the
    one before it: psi0's pair amplitude on the 2D engine, its separation
    factor on the separated engine (the centre-of-mass factor is shared).
    psi0 is then exactly the coupling-free run of evolve, psi1 exactly the
    first-order term of the full discrete map, and the residual against
    evolve is purely second order in the coupling: no first-order
    splitting mismatch is left over.  psi1 is linear in the coupling, so
    scaling G by a power of two scales psi1 by the same power, bit for
    bit.  The channels share one stacked transform pair per step.
    Requires a perturbatively small coupling: pair.action_over_hbar of
    the run time below PERTURBATIVE_WINDOW.  For a SeparatedState both
    channels are gathered at the end.
    """
    build = _engine_for(state0, pot_ext, pair, cfg)[0]  # the gathered start is not kept
    hbar = pair.units.hbar
    action = pair.action_over_hbar(cfg.dt * cfg.steps)
    if action >= PERTURBATIVE_WINDOW:
        raise ValidationError(
            f"coupling too large for a first-order split: |V(0)| T / hbar = {action:.3g} "
            f">= {PERTURBATIVE_WINDOW}"
        )

    engine = build(state0, pot_ext, pair, cfg, coupled=False)
    half_insert = (-0.5j * cfg.dt / hbar) * engine.pair_samples()
    z = engine.channels(extra=1)
    for _ in range(cfg.steps):
        z[-1] += half_insert * z[-2]
        z = engine.step(z)
        z[-1] += half_insert * z[-2]

    t_end = state0.time + cfg.steps * cfg.dt
    for name, channels in (("psi0", z[:-1]), ("psi1", z[-1])):
        if _non_finite(channels):
            raise NumericalAbort(f"non-finite amplitudes in {name} at t={t_end!r}")
    return engine.gather(z[:-1], t_end), engine.gather(z, t_end)


def first_order_position_density(psi0: MetaState, psi1: MetaState) -> NDArray[np.float64]:
    """Physical-coordinate density through first order in the coupling.

    Pr(X) = integral over the hidden coordinate of |psi0|^2 + 2 Re(psi0 psi1*);
    the correction integrates to zero, so the total mass stays 1.
    """
    if psi0.grid != psi1.grid:
        raise ValidationError("psi0 and psi1 must share a grid")
    a0 = psi0.amplitudes
    a1 = psi1.amplitudes
    dens = np.abs(a0) ** 2 + 2.0 * (a0 * np.conj(a1)).real
    return dens.sum(axis=1) * psi0.grid.dx
