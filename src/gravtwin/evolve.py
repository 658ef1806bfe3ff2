"""Split-step spectral evolution of the pair amplitude.

One step is the symmetric composition

    exp(-i V dt / 2 hbar) . exp(-i K dt / hbar) . exp(-i V dt / 2 hbar)

with V = V_pair(|x - x~|) applied pointwise in position space and the
kinetic phase for both coordinates applied in one 2D transform pass.
Second order in dt; exactly norm-preserving on the periodic grid.

There is one engine per type of state, each with one such step applied
to a stack of channels.  A MetaState is stepped on the n x n pair grid.
A SeparatedState is stepped as its centre of mass X = (x + x~)/2 (mass
2m, free) and separation r = x - x~ (mass m/2, feeling V_pair(|r|)): V
above depends on r alone, so the step factorises into one 1D step per
coordinate.  The pair amplitude is gathered only at record points that
something reads.

evolve runs the step at the couplings of a scan of pairs, one channel per
coupling in one stack; on the separated engine the couplings share the
free centre of mass.  dyson_first_order runs the same engine's step at
G = 0, with the coupling's derivative inserted around it, to carry the
coupling-free channel and the single-insertion correction channel side by
side for perturbative cross-checks.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from typing import Any, Callable, Sequence

import numpy as np
import scipy.fft as sfft
from numpy.typing import NDArray

from .core import (
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
    """The 2D engine: n x n pair amplitudes, stacked as channels on a leading axis.

    Channel c holds the pair amplitude at the coupling of pairs[c], and
    half_v is the (C, n, n) stack of their half-step phases.
    """

    def __init__(self, state: MetaState, pairs: Sequence[PairPotential], cfg: EvolutionConfig) -> None:
        self.workers = fft_workers()
        self.state = state
        hbar, mass = pairs[0].units.hbar, pairs[0].species.mass
        k2 = state.grid.momentum_grid**2
        samples = np.array([self.pair_samples(pair) for pair in pairs])
        self.half_v = np.exp(-0.5j * cfg.dt / hbar * samples)
        self.full_k = np.exp(-0.5j * hbar * cfg.dt / mass * (k2[:, None] + k2[None, :]))

    def pair_samples(self, pair: PairPotential) -> NDArray[np.float64]:
        """V_pair(|x - x~|) over the pair grid."""
        return pair.evaluate_on_grid(self.state.grid)

    def start(self) -> MetaState:
        """The start on the pair grid: the state itself."""
        return self.state

    def channels(self, extra: int) -> NDArray[np.complex128]:
        """The start amplitude in each coupling channel, then `extra` zero channels."""
        n, couplings = self.state.grid.n, len(self.half_v)
        z = np.zeros((couplings + extra, n, n), dtype=np.complex128)
        z[:couplings] = self.state.amplitudes
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
    """The separated engine: the centre-of-mass factors in channel 0, one separation channel per coupling after it.

    Each channel is (K, 2n).  X sits on 2n points at dx/2 with mass 2m and
    runs free, so every coupling shares channel 0.  r sits on 2n points at
    dx with mass m/2, and channel 1 + c feels V_pair(|r|) of pairs[c]
    through half_rel[c], the (C, 1, 2n) stack of half-step phases.
    """

    def __init__(self, state: SeparatedState, pairs: Sequence[PairPotential], cfg: EvolutionConfig) -> None:
        self.workers = fft_workers()
        self.state = state
        grid, hbar, mass = state.grid, pairs[0].units.hbar, pairs[0].species.mass
        samples = np.array([self.pair_samples(pair) for pair in pairs])[:, None, :]
        self.half_rel = np.exp(-0.5j * cfg.dt / hbar * samples)
        k_com = 2.0 * math.pi * sfft.fftfreq(2 * grid.n, d=0.5 * grid.dx)
        k_rel = 2.0 * math.pi * sfft.fftfreq(2 * grid.n, d=grid.dx)
        self.kin_com = np.exp(-0.5j * hbar * cfg.dt / (2.0 * mass) * k_com**2)
        self.kin_rel = np.exp(-0.5j * hbar * cfg.dt / (0.5 * mass) * k_rel**2)

    def pair_samples(self, pair: PairPotential) -> NDArray[np.float64]:
        """V_pair(|r|) on the separation samples."""
        return pair.evaluate(np.abs(separated_axes(self.state.grid)[1]))

    def start(self) -> MetaState:
        """The start on the pair grid, gathered from its factors."""
        return self.state.metastate()

    def channels(self, extra: int) -> NDArray[np.complex128]:
        """The start com factors in channel 0, its rel factors in each coupling channel, then `extra` zero channels."""
        couplings = len(self.half_rel)
        z = np.zeros((1 + couplings + extra,) + self.state.com.shape, dtype=np.complex128)
        z[0], z[1:1 + couplings] = self.state.com, self.state.rel
        return z

    def step(self, z: NDArray[np.complex128]) -> NDArray[np.complex128]:
        z[1:] *= self.half_rel
        z = sfft.fft(z, workers=self.workers, overwrite_x=True)
        z[0] *= self.kin_com
        z[1:] *= self.kin_rel
        z = sfft.ifft(z, workers=self.workers, overwrite_x=True)
        z[1:] *= self.half_rel
        return z

    def gather(self, z: NDArray[np.complex128], t: float) -> MetaState:
        """The pair amplitude of the centre-of-mass channel times the last channel."""
        return SeparatedState(grid=self.state.grid, com=z[0], rel=z[-1], time=t).metastate()


def _engine_for(
    state: MetaState | SeparatedState, pairs: Sequence[PairPotential], cfg: EvolutionConfig
) -> _GridEngine | _SeparatedEngine:
    """The engine stepping the state at each pair's coupling, one channel per pair.

    The separated engine steps a SeparatedState, the 2D engine a
    MetaState.  The pairs share one kinetic phase, so they must agree in
    everything but G: a scan with no pair, or whose pairs differ in species
    or hbar, is rejected first.  Then the start must be normalized (a
    SeparatedState is measured on its factors, not gathered) and dt must
    pass the CFL guard.  All is checked before the engine is built.
    """
    if not pairs:
        raise ValidationError("need at least one pair potential to evolve with")
    first = pairs[0]
    for pair in pairs[1:]:
        if pair.species != first.species or pair.units.hbar != first.units.hbar:
            raise ValidationError(
                f"the pairs of a scan may differ only in G: {pair.species!r}, hbar = "
                f"{pair.units.hbar!r} against {first.species!r}, hbar = {first.units.hbar!r}"
            )
    check_unit_norm(state)
    cfg.check_stability(state.grid, first.species.mass, first.units.hbar)
    build = _SeparatedEngine if isinstance(state, SeparatedState) else _GridEngine
    return build(state, pairs, cfg)


def evolve(
    state: MetaState | SeparatedState,
    pairs: Sequence[PairPotential],
    cfg: EvolutionConfig,
    observer: Callable[[MetaState], Any] | None = None,
) -> list[EvolutionRecord]:
    """Propagate the pair state for cfg.steps steps of cfg.dt at each pair's coupling.

    Returns one EvolutionRecord per pair, in order; a single run is
    evolve(state, (pair,), cfg)[0].  The pair potential couples the two
    coordinates through their separation, and the pairs may differ only
    in G.  All couplings are stepped as one stack of channels: on the
    separated engine they share the free centre of mass.  Amplitudes are
    checked for blow-up at every record point; non-finite values abort
    the run with a step diagnostic.

    A SeparatedState is stepped by the separated engine.  The observer
    and the final states see the gathered MetaState; mass outside the
    n x n box is dropped there.  The pair amplitude is gathered only
    where something reads it: at every record point when there is an
    observer, else at the last step only.  The start is the same for
    every coupling, so it is gathered and observed once, and that one
    observation opens each record's list.  At later record points the
    couplings are gathered and observed one after another.
    """
    engine = _engine_for(state, pairs, cfg)
    psi = engine.channels(extra=0)
    shared = len(psi) - len(pairs)  # the centre of mass on the separated engine, else none

    times: list[float] = []
    observed: list[list[Any]] = [[] for _ in pairs]
    finals: list[MetaState] = []

    def record(step: int) -> None:
        t = state.time + step * cfg.dt
        bad = _non_finite(psi)
        if bad:
            raise NumericalAbort(
                f"non-finite amplitudes at step {step} (t={t!r}): {bad} bad entries"
            )
        times.append(t)
        if step == 0:
            if observer is not None:
                seen = observer(engine.start())
                for obs in observed:
                    obs.append(seen)
            return
        if observer is None and step < cfg.steps:
            return
        for c, obs in enumerate(observed):
            snap = engine.gather(psi[:shared + c + 1], t)
            if observer is not None:
                obs.append(observer(snap))
            if step == cfg.steps:
                finals.append(snap)

    record(0)
    for step in range(1, cfg.steps + 1):
        psi = engine.step(psi)
        if step % cfg.record_every == 0 or step == cfg.steps:
            record(step)

    return [
        EvolutionRecord(
            times=np.array(times),
            final_state=final,
            reduced_observables=obs if observer is not None else None,
        )
        for final, obs in zip(finals, observed)
    ]


def check_first_order_window(pair: PairPotential, duration: float) -> None:
    """Refuse a coupling past the first-order window: S0 / hbar over duration must stay below PERTURBATIVE_WINDOW."""
    action = pair.action_over_hbar(duration)
    if action >= PERTURBATIVE_WINDOW:
        raise ValidationError(
            f"coupling too large for a first-order split: |V(0)| T / hbar = {action:.3g} "
            f">= {PERTURBATIVE_WINDOW}"
        )


def dyson_first_order(
    state0: MetaState | SeparatedState,
    pair: PairPotential,
    cfg: EvolutionConfig,
) -> tuple[MetaState, MetaState]:
    """Coupling-free channel plus the single-insertion correction channel.

    Returns (psi0, psi1) at the final time: psi0 is the evolution at
    G = 0, psi1 the first-order correction

        psi1 = -(i/hbar) * sum_k U0(t_b, t_k) V_pair U0(t_k, t_a) psi(t_a) dt

    discretised as the derivative in the coupling of the Strang step that
    evolve applies.  Both are stepped by the engine evolve builds for the
    state at G = 0.  The coupling enters evolve's step only through its
    two half-step potential phases exp(-i V_pair dt / 2 hbar), one at each
    end; the kinetic phase carries none.  So around each G = 0 step a half
    insertion -i V_pair dt / (2 hbar) psi0 is added to psi1 at both ends.
    psi1 is the last channel of the engine's stack and is fed from the
    one before it: psi0's pair amplitude on the 2D engine, its separation
    factor on the separated engine (the centre-of-mass factor is shared).
    psi0 is then exactly evolve's run at G = 0, psi1 exactly the
    first-order term of the full discrete map, and the residual against
    evolve is purely second order in the coupling: no first-order
    splitting mismatch is left over.  psi1 is linear in the coupling, so
    scaling G by a power of two scales psi1 by the same power, bit for
    bit.  The channels share one stacked transform pair per step.
    Requires a perturbatively small coupling over the run time
    (`check_first_order_window`), checked before the start is touched.
    A SeparatedState's start norm is checked on its factors, and only the
    two channels are gathered, at the end.
    """
    check_first_order_window(pair, cfg.dt * cfg.steps)
    free = PairPotential(pair.species, replace(pair.units, G=0.0))
    engine = _engine_for(state0, (free,), cfg)
    half_insert = (-0.5j * cfg.dt / pair.units.hbar) * engine.pair_samples(pair)
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


def first_order_position_density(
    psi0: MetaState, psi1: MetaState, scales: Sequence[float]
) -> list[NDArray[np.float64]]:
    """Physical-coordinate densities through first order, one per scale s of the coupling.

    Pr_s(X) = integral over the hidden coordinate of |psi0|^2 + s 2 Re(psi0 psi1*);
    the correction integrates to zero, so the total mass stays 1.  psi1 is
    linear in the coupling, so scale s stands for the coupling times s.
    |psi0|^2 and 2 Re(psi0 psi1*) are formed once for all scales.  For s a
    power of two, s 2 Re(psi0 psi1*) is bitwise 2 Re(psi0 (s psi1)*) as long
    as nothing underflows.
    """
    if psi0.grid != psi1.grid:
        raise ValidationError("psi0 and psi1 must share a grid")
    a0 = psi0.amplitudes
    a1 = psi1.amplitudes
    dens0 = np.abs(a0) ** 2
    cross = 2.0 * (a0 * np.conj(a1)).real
    return [(dens0 + s * cross).sum(axis=1) * psi0.grid.dx for s in scales]
