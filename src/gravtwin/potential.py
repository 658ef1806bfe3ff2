"""The halved pair potential between a sphere and its hidden copy.

For two overlapping homogeneous spheres of mass m and radius R at
center separation r, half the mutual Newtonian energy is

    V(r) = (G m^2 / 2) (80 R^3 r^2 - 30 R^2 r^3 + r^5 - 192 R^5) / (160 R^6)   r < 2R
    V(r) = -(G m^2 / 2) / r                                                    r >= 2R

Both branches meet at r = 2R with the value -G m^2 / (4 R).  The action
integrals the interferometer needs are computed twice: a closed-form
piecewise antiderivative (fast path) and adaptive quadrature (oracle);
disagreement is a hard error.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray
from scipy.integrate import quad

from .core import Grid1D, ParticleSpecies, UnitSystem, ValidationError

# Closed-form vs quadrature agreement demanded of every separating-action call.
_ACTION_AGREEMENT_RTOL = 1e-10


@dataclass(frozen=True)
class SeparatingAction:
    """Separating-arm action, computed by both routes.

    closed_form is the piecewise antiderivative value (use this);
    quadrature is the adaptive-integration cross-check.
    """

    closed_form: float
    quadrature: float


@dataclass(frozen=True)
class PairPotential:
    """Pair potential bound to one species and one unit system.

    The species fields must be expressed in the same unit system as
    `units` (code units in dimensionless mode, SI otherwise).
    """

    species: ParticleSpecies
    units: UnitSystem

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
        ri = arr[inside]
        out[inside] = (
            0.5 * G * m * m
            * (80.0 * R**3 * ri**2 - 30.0 * R**2 * ri**3 + ri**5 - 192.0 * R**5)
            / (160.0 * R**6)
        )
        ro = arr[~inside]
        out[~inside] = -0.5 * G * m * m / ro
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
        if self.units.G == 0.0:
            return SeparatingAction(closed_form=0.0, quadrature=0.0)
        s_max = v * T / math.sqrt(2.0)
        closed = -(math.sqrt(2.0) / v) * self._antiderivative(s_max)

        # Integrate in t, splitting at the branch point and then one
        # panel per decade: the 1/r tail accumulates logarithmically, so
        # a single pass over (possibly) a dozen decades of t would
        # starve the sampler.
        R = self.species.radius
        t_half = T / 2.0
        t_break = 2.0 * R / (math.sqrt(2.0) * v)
        edges = [0.0, min(t_break, t_half)]
        if t_half > t_break:
            decades = max(1, math.ceil(math.log10(t_half / t_break)))
            ratio = t_half / t_break
            edges.extend(t_break * ratio ** (j / decades) for j in range(1, decades + 1))
        integrand = lambda t: self.evaluate(math.sqrt(2.0) * v * t)
        total = 0.0
        for a, b in zip(edges, edges[1:]):
            if b <= a:
                continue
            est, _ = quad(
                integrand, a, b, limit=200, epsrel=1e-12, epsabs=1e-14 * abs(closed)
            )
            total += est
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
