"""The halved pair potential between a sphere and its hidden copy.

For two overlapping homogeneous spheres of mass m and radius R at
center separation r, half the mutual Newtonian energy is

    V(r) = (G m^2 / 2) (80 R^3 r^2 - 30 R^2 r^3 + r^5 - 192 R^5) / (160 R^6)   r < 2R
    V(r) = -(G m^2 / 2) / r                                                    r >= 2R

Both branches meet at r = 2R with the value -G m^2 / (4 R).  The action
integrals the interferometer needs are computed twice: a closed-form
piecewise antiderivative (fast path) and a fixed Gauss-Legendre rule
(oracle); disagreement is a hard error.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.typing import NDArray

from .core import Grid1D, ParticleSpecies, UnitSystem, ValidationError

# Closed-form vs quadrature agreement demanded of every separating-action call.
_ACTION_AGREEMENT_RTOL = 1e-10

# First order in the coupling holds while S0 / hbar = |V(0)| T / hbar stays below this.
PERTURBATIVE_WINDOW = 0.1

# Three-point Gauss-Legendre rule on [-1, 1]: exact for polynomials up to degree 5.
_GAUSS_NODES = (-math.sqrt(0.6), 0.0, math.sqrt(0.6))
_GAUSS_WEIGHTS = (5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0)


def _core_branch(r, G: float, m: float, R: float):
    """V(r) for r < 2R; r is a float or an array of separations."""
    return (
        0.5 * G * m * m
        * (80.0 * R**3 * r**2 - 30.0 * R**2 * r**3 + r**5 - 192.0 * R**5)
        / (160.0 * R**6)
    )


def _tail_branch(r, G: float, m: float):
    """V(r) for r >= 2R; r is a float or an array of separations."""
    return -0.5 * G * m * m / r


def _float_value(r: float, G: float, m: float, R: float) -> float:
    """V(r) on a plain float, branch chosen as `PairPotential.evaluate` does."""
    return _core_branch(r, G, m, R) if r < 2.0 * R else _tail_branch(r, G, m)


def _gauss_legendre(f: Callable[[float], float], a: float, b: float) -> float:
    """The integral of f over [a, b] by the three-point Gauss-Legendre rule."""
    half, mid = 0.5 * (b - a), 0.5 * (a + b)
    return half * sum(w * f(mid + half * x) for x, w in zip(_GAUSS_NODES, _GAUSS_WEIGHTS))


@dataclass(frozen=True)
class SeparatingAction:
    """Separating-arm action, computed by both routes.

    closed_form is the piecewise antiderivative value (use this);
    quadrature is the Gauss-Legendre cross-check.
    """

    closed_form: float
    quadrature: float


@dataclass(frozen=True)
class PairPotential:
    """Pair potential bound to one species and one unit system.

    The species fields must be expressed in the same unit system as
    `units` (code units with UnitSystem.dimensionless, SI with UnitSystem.si).
    """

    species: ParticleSpecies
    units: UnitSystem

    def __post_init__(self) -> None:
        # G m^2 and 160 R^6 scale both branches; outside the float range V is inf or nan.
        R = self.species.radius
        gm2 = self.units.G * self.species.mass * self.species.mass
        try:
            r6 = 160.0 * R**6
        except OverflowError:
            r6 = math.inf
        if not (math.isfinite(gm2) and math.isfinite(r6) and r6 > 0):
            raise ValidationError(
                f"pair potential leaves the float range: G m^2 = {gm2!r}, 160 R^6 = {r6!r}"
            )
        # The core branch multiplies 0.5 G m^2 by its polynomial, whose size
        # runs from 80 R^5 (at r = 2R) to 192 R^5 (at r = 0), then divides by
        # 160 R^6.  A product or quotient past the normal floats loses digits
        # or becomes 0 or inf, and V comes out wrong without an error.
        if self.units.G > 0:
            half = 0.5 * gm2
            core = (half * 80.0 * R**5, half * 192.0 * R**5)
            steps = (half, *core, *(c / r6 for c in core))
            if not all(sys.float_info.min <= x < math.inf for x in steps):
                raise ValidationError(
                    "pair potential leaves the float range: "
                    f"0.5 G m^2 = {half!r}, 0.5 G m^2 (80 R^5, 192 R^5) = {core!r}, 160 R^6 = {r6!r}"
                )

    def evaluate(self, r):
        """V(r); scalar in, scalar out; arrays are mapped elementwise."""
        arr = np.asarray(r, dtype=np.float64)
        if np.any(arr < 0) or not np.all(np.isfinite(arr)):
            raise ValidationError("separation r must be finite and >= 0")
        G = self.units.G
        m = self.species.mass
        R = self.species.radius
        out = np.empty_like(arr)
        inside = arr < 2.0 * R
        out[inside] = _core_branch(arr[inside], G, m, R)
        out[~inside] = _tail_branch(arr[~inside], G, m)
        if np.ndim(r) == 0:
            return float(out)
        return out

    def evaluate_on_grid(self, grid: Grid1D) -> NDArray[np.float64]:
        """V(|x - x~|) tabulated over the pair grid; swap-symmetric by construction."""
        sep = np.abs(grid.x[:, None] - grid.x[None, :])
        return self.evaluate(sep)

    def _antiderivative(self, s: float) -> float:
        """W(s) = integral of V from 0 to s, piecewise closed form."""
        G = self.units.G
        m = self.species.mass
        R = self.species.radius
        gm2 = G * m * m
        if s <= 2.0 * R:
            return (gm2 / (320.0 * R**6)) * (
                (80.0 / 3.0) * R**3 * s**3 - 7.5 * R**2 * s**4 + s**6 / 6.0 - 192.0 * R**5 * s
            )
        w_2r = -0.875 * gm2  # polynomial branch evaluated at s = 2R
        return w_2r - 0.5 * gm2 * math.log(s / (2.0 * R))

    def action_integral_separating(self, v: float, T: float) -> SeparatingAction:
        """Action accumulated while the arms separate at relative speed sqrt(2) v.

        Defined as -2 * integral over [0, T/2] of V(sqrt(2) v t) dt: the
        separation grows linearly for the first half flight and the
        second half mirrors it.  Non-negative whenever G > 0.
        """
        if not (math.isfinite(v) and v > 0):
            raise ValidationError(f"speed must be finite and > 0, got {v!r}")
        if not (math.isfinite(T) and T > 0):
            raise ValidationError(f"flight time must be finite and > 0, got {T!r}")
        s_max = v * T / math.sqrt(2.0)
        closed = -(math.sqrt(2.0) / v) * self._antiderivative(s_max)

        # Two panels, split at the branch point.  The core panel runs in t,
        # where V(sqrt(2) v t) is a quintic.  The tail panel runs in
        # u = ln t, where the 1/r tail makes V(sqrt(2) v e^u) e^u constant
        # over however many decades of t the flight spans.  The three-point
        # Gauss-Legendre rule is exact for both integrands.
        R = self.species.radius
        t_half = T / 2.0
        t_break = 2.0 * R / (math.sqrt(2.0) * v)
        # V on plain floats, not through `evaluate`: its array route costs
        # ~100x more per scalar.
        G = self.units.G
        m = self.species.mass
        speed = math.sqrt(2.0) * v
        total = _gauss_legendre(lambda t: _float_value(speed * t, G, m, R), 0.0, min(t_break, t_half))
        if t_half > t_break:
            ratio = t_half / t_break if t_break > 0 else math.inf
            if not math.isfinite(ratio):
                raise ValidationError(
                    f"separating action: panel ratio t_half / t_break = {ratio!r} is not finite"
                )
            total += _gauss_legendre(
                lambda u: _float_value(speed * math.exp(u), G, m, R) * math.exp(u),
                math.log(t_break), math.log(t_half),
            )
        numeric = -2.0 * total

        denom = max(abs(closed), abs(numeric))
        if denom > 0 and abs(closed - numeric) / denom >= _ACTION_AGREEMENT_RTOL:
            raise ArithmeticError(
                "separating action: closed form and quadrature disagree "
                f"({closed!r} vs {numeric!r})"
            )
        return SeparatingAction(closed_form=closed, quadrature=numeric)

    def action_coincident(self, T: float) -> float:
        """Action for arms that never separate: -T V(0) = (3/5) G m^2 T / R."""
        if not (math.isfinite(T) and T > 0):
            raise ValidationError(f"flight time must be finite and > 0, got {T!r}")
        return -T * self.evaluate(0.0)

    def action_over_hbar(self, T: float) -> float:
        """S0 / hbar = |V(0)| T / hbar: held against PERTURBATIVE_WINDOW by first-order results."""
        return self.action_coincident(T) / self.units.hbar
