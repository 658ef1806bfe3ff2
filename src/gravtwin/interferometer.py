"""Analytic two-arm fringe computation with the pair correction.

A particle and its hidden copy each traverse a two-arm loop: the arms
pick up a relative phase action delta and rejoin after a flight time
T = 2L/v.  The pair coupling contributes one of two action constants to
each (physical arm, hidden arm) combination: S0 when the arms coincide
and the separation never grows, S1 when they separate at relative speed
sqrt(2) v for half the flight and close again.

Two independent routes to the first-order correction live here: the
closed-form expression in `correction`, and a brute-force enumeration of
the four arm pairs in `pair_enumeration_oracle`.  Their harmonic
content in delta is compared coefficient by coefficient.  Both routes
yield a purely imaginary amplitude product: the first-order fringe
shift cancels identically.
"""
from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, replace
from functools import lru_cache

from .core import ParticleSpecies, UnitSystem, ValidationError
from .potential import PERTURBATIVE_WINDOW, PairPotential


class PerturbativeRegimeWarning(UserWarning):
    """Coupling action is no longer small against hbar; first order is suspect."""


@dataclass(frozen=True)
class InterferometerConfig:
    species: ParticleSpecies
    L: float       # arm scale
    v: float       # beam speed
    delta: float   # phase-difference action between the arms
    units: UnitSystem

    def __post_init__(self) -> None:
        if not (math.isfinite(self.L) and self.L > 0):
            raise ValidationError(f"arm length must be finite and > 0, got {self.L!r}")
        if not (math.isfinite(self.v) and self.v > 0):
            raise ValidationError(f"beam speed must be finite and > 0, got {self.v!r}")
        # correction takes cos(2 delta / hbar), so 2 delta / hbar must stay a float.
        if not math.isfinite(2.0 * (self.delta / self.units.hbar)):
            raise ValidationError(
                f"delta must be finite with 2 delta / hbar finite, got {self.delta!r}"
            )

    @property
    def T(self) -> float:
        """Flight time: out and back at speed v over the arm scale."""
        return 2.0 * self.L / self.v


@dataclass(frozen=True)
class CorrectionResult:
    """Amplitudes and probabilities of the two-arm computation.

    Convention: A is the coupling-free exit-port amplitude of a single
    copy, cos(delta / 2 hbar), so |A|^2 is the familiar fringe.  a is
    the first-order correction carrying the hidden copy's zeroth-order
    port factor, which makes A conj(a) equal to the product of the joint
    both-copies-at-the-port amplitudes order by order.  prob_zeroth
    traces the hidden copy over both of its exit ports (unit norm), so
    it equals |A|^2, not |A_joint|^2.
    """

    A: complex
    a: complex
    Aa_star: complex
    prob_zeroth: float
    prob_correction: float
    S_G0: float
    S_G1: float


@dataclass(frozen=True)
class PathPair:
    physical_arm: str   # "I" or "II"
    hidden_arm: str
    kind: str           # "coincident" | "separating"


def enumerate_path_pairs() -> tuple[PathPair, ...]:
    """All four (physical arm, hidden arm) combinations, classified.

    Same arm twice means the copies ride together (coincident action);
    opposite arms separate and recombine (separating action).
    """
    arms = ("I", "II")
    return tuple(
        PathPair(p, h, "coincident" if p == h else "separating")
        for p in arms
        for h in arms
    )


@lru_cache(maxsize=64)
def _actions_cached(
    species: ParticleSpecies, units: UnitSystem, v: float, T: float
) -> tuple[float, float]:
    pair = PairPotential(species=species, units=units)
    if units.G == 0.0:
        return 0.0, 0.0
    s0 = pair.action_coincident(T)
    s1 = pair.action_integral_separating(v, T).closed_form
    if not (math.isfinite(s0 / units.hbar) and math.isfinite(s1 / units.hbar)):
        raise ValidationError(
            f"pair actions over hbar leave the float range: S0 = {s0!r}, S1 = {s1!r}"
        )
    return s0, s1


def _actions(cfg: InterferometerConfig) -> tuple[float, float]:
    # The actions are cached per geometry (species, units, v, T): delta
    # plays no role in them, so a sweep runs the closed form and its
    # quadrature cross-check once, not once per point.
    return _actions_cached(cfg.species, cfg.units, cfg.v, cfg.T)


def zeroth_order_probability(cfg: InterferometerConfig) -> float:
    """Exit-port probability with the pair coupling off: cos^2(delta / 2 hbar)."""
    return math.cos(0.5 * cfg.delta / cfg.units.hbar) ** 2


def correction(cfg: InterferometerConfig) -> CorrectionResult:
    """Closed-form first-order correction for the two-arm setup.

    The amplitude product is

        A a* = (-i S0 / 4 hbar) [ 1/2 + cos(delta/hbar) + cos(2 delta/hbar)/2
                                  + (S1/S0) (1 + cos(delta/hbar)) ]

    with a real bracket, so Re(A a*) vanishes identically and the
    first-order probability shift is exactly zero.
    """
    hbar = cfg.units.hbar
    theta = 0.5 * cfg.delta / hbar
    big_delta = cfg.delta / hbar
    amp0 = complex(math.cos(theta))
    prob0 = zeroth_order_probability(cfg)
    s0, s1 = _actions(cfg)
    if s0 == 0.0:
        return CorrectionResult(
            A=amp0, a=0j, Aa_star=0j,
            prob_zeroth=prob0, prob_correction=0.0, S_G0=0.0, S_G1=0.0,
        )
    if s0 / hbar >= PERTURBATIVE_WINDOW:  # s0 / hbar is PairPotential.action_over_hbar(T)
        warnings.warn(
            f"coupling action S0/hbar = {s0 / hbar:.3g} is not small; "
            "the first-order result is outside its validity window",
            PerturbativeRegimeWarning,
            stacklevel=2,
        )
    bracket = (
        0.5
        + math.cos(big_delta)
        + 0.5 * math.cos(2.0 * big_delta)
        + (s1 / s0) * (1.0 + math.cos(big_delta))
    )
    aa_star = (-1j * s0 / (4.0 * hbar)) * bracket
    amp1 = (1j / (2.0 * hbar)) * math.cos(theta) * (s0 * math.cos(big_delta) + s1)
    return CorrectionResult(
        A=amp0,
        a=amp1,
        Aa_star=aa_star,
        prob_zeroth=prob0,
        prob_correction=2.0 * aa_star.real,
        S_G0=s0,
        S_G1=s1,
    )


# Enumeration conventions, fixed once:
_ARM_AMPLITUDE = 0.5          # per arm, per copy (two 50/50 splits)
_ARM_PHASE_SIGN = {"I": +1.0, "II": -1.0}   # symmetric gauge: +-delta/2 per copy


def pair_enumeration_oracle(cfg: InterferometerConfig) -> CorrectionResult:
    """First-order correction by brute force over the four arm pairs.

    Convention (documented constants above): each copy takes either arm
    with amplitude 1/2 and phase +-delta/2hbar; both hidden arms are
    recombined coherently at the detection port, and the coupling phase
    exp(i S / hbar) of each pair is expanded to first order.  The joint
    zeroth and first-order port amplitudes are summed over the four
    pairs; prob_zeroth additionally traces the hidden copy over both of
    its exit ports (the odd combination completes the norm).

    The action constants are taken from the same closed forms as
    `correction`; what this oracle independently exercises is the pair
    combinatorics, the expansion, and the harmonic structure in delta.
    """
    hbar = cfg.units.hbar
    theta = 0.5 * cfg.delta / hbar
    s0, s1 = _actions(cfg)
    action = {"coincident": s0, "separating": s1}

    joint0 = 0j  # both copies at the port, coupling off
    joint1 = 0j  # same, one coupling insertion
    for p in enumerate_path_pairs():
        phase = cmath.exp(
            1j * theta * (_ARM_PHASE_SIGN[p.physical_arm] + _ARM_PHASE_SIGN[p.hidden_arm])
        )
        weight = _ARM_AMPLITUDE * _ARM_AMPLITUDE * phase
        joint0 += weight
        joint1 += weight * (1j * action[p.kind] / hbar)

    port = sum(
        _ARM_AMPLITUDE * cmath.exp(1j * theta * _ARM_PHASE_SIGN[arm]) for arm in ("I", "II")
    )
    # Hidden copy's other exit port: the odd arm combination.
    port_odd = sum(
        _ARM_PHASE_SIGN[arm] * 1j * _ARM_AMPLITUDE * cmath.exp(1j * theta * _ARM_PHASE_SIGN[arm])
        for arm in ("I", "II")
    )
    hidden_norm = abs(port) ** 2 + abs(port_odd) ** 2

    aa_star = joint0 * joint1.conjugate()
    return CorrectionResult(
        A=port,
        a=port * joint1,
        Aa_star=aa_star,
        prob_zeroth=abs(port) ** 2 * hidden_norm,
        prob_correction=2.0 * aa_star.real,
        S_G0=s0,
        S_G1=s1,
    )


@dataclass(frozen=True)
class HarmonicCoefficientDiff:
    """Harmonic content of A a* in delta/hbar, from both routes.

    Coefficients are reported in units of the overall -i S0 / 4 hbar
    factor; keys are const, cos_delta, cos_2delta.
    """

    closed_form: dict[str, float]
    enumeration: dict[str, float]
    max_abs_difference: float


def harmonic_coefficient_diff(cfg: InterferometerConfig) -> HarmonicCoefficientDiff:
    """Structured comparison of the two routes' delta-harmonics.

    The closed form states its coefficients directly; the enumeration's
    are projected numerically from an 8-point uniform sweep of
    delta/hbar over one period (exact for harmonics through cos 2x).
    """
    s0, s1 = _actions(cfg)
    if s0 == 0.0:
        zeros = {"const": 0.0, "cos_delta": 0.0, "cos_2delta": 0.0}
        return HarmonicCoefficientDiff(zeros, dict(zeros), 0.0)
    r = s1 / s0
    stated = {"const": 0.5 + r, "cos_delta": 1.0 + r, "cos_2delta": 0.5}

    hbar = cfg.units.hbar
    n = 8
    samples = []
    for j in range(n):
        big_delta = 2.0 * math.pi * j / n
        res = pair_enumeration_oracle(replace(cfg, delta=big_delta * hbar))
        samples.append(res.Aa_star.imag / (-s0 / (4.0 * hbar)))
    projected = {
        "const": sum(samples) / n,
        "cos_delta": 2.0 / n * sum(
            f * math.cos(2.0 * math.pi * j / n) for j, f in enumerate(samples)
        ),
        "cos_2delta": 2.0 / n * sum(
            f * math.cos(4.0 * math.pi * j / n) for j, f in enumerate(samples)
        ),
    }
    worst = max(abs(stated[k] - projected[k]) for k in stated)
    return HarmonicCoefficientDiff(stated, projected, worst)


def cow_neutron_preset() -> InterferometerConfig:
    """Neutron two-arm setup at bench scale: 10 cm arms, thermal beam, delta = 0."""
    return InterferometerConfig(
        species=ParticleSpecies(mass=1.675e-27, radius=1.0e-15),
        L=0.10,
        v=2.2e3,
        delta=0.0,
        units=UnitSystem.si(),
    )


def delta_from_uniform_field(slope: float, separation: float, L: float, v: float) -> float:
    """Phase-difference action for arms offset by `separation` in a linear potential.

    The offset arm sits higher by slope * separation for the dwell time
    L / v, so delta = slope * separation * L / v.  Convenience plumbing
    only; delta can always be supplied directly.
    """
    if not all(map(math.isfinite, (slope, separation, L, v))) or L <= 0 or v <= 0:
        raise ValidationError("need finite slope and separation, L > 0, v > 0")
    return slope * separation * L / v
