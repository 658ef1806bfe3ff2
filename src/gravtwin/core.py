"""Units, species, grids, and the two-coordinate state container.

A UnitSystem is the pair (hbar, G) every computation reads.  The SI one
carries the CODATA constants; the dimensionless one sets hbar = 1, and
its single knob is the coupling g = G m^3 l / hbar^2.  Every run that
evolves a field uses hbar = 1.
"""
from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np
from numpy.typing import NDArray

HBAR_SI = 1.054571817e-34  # J s
NEWTON_G_SI = 6.67430e-11  # m^3 kg^-1 s^-2

# How far a state's norm may sit from 1 before it is rejected as not normalized.
UNIT_NORM_TOL = 1e-8
# Rows per block of max_skew and of the separated gather: at n = 512 a block
# is 256 KB, a cache-sized temporary.
_ROW_BLOCK = 32


class ValidationError(ValueError):
    """Bad physical or numerical input, rejected at construction."""


def _readonly(a: NDArray) -> NDArray:
    a.setflags(write=False)
    return a


def max_skew(m: NDArray, conjugate: bool = False) -> float:
    """max |M - M^T| of a square M, or max |M - M^H| with conjugate, without an n x n temporary.

    Entry (j, i) of M - M^T is minus entry (i, j) to the last bit, and the
    modulus ignores the sign, so only the blocks on and above the diagonal
    are formed: rows i..i+31 against the matching columns.  Each entry is
    the dense formula's, so the maximum is bitwise the dense one, and a
    NaN anywhere in M still comes out as NaN.
    """
    n = m.shape[0]
    maxima = []
    for i in range(0, n, _ROW_BLOCK):
        j = i + _ROW_BLOCK
        mirror = m[i:, i:j].T
        if conjugate:
            mirror = mirror.conj()
        maxima.append(np.max(np.abs(m[i:j, i:] - mirror)))
    return float(np.max(maxima))


@dataclass(frozen=True)
class UnitSystem:
    """The two constants every computation reads.

    In si() code numbers are SI numbers.  dimensionless(g) sets hbar = 1,
    and G is the coupling g = G m^3 l / hbar^2 of a species of mass m and
    radius l taken as the units of mass and length.
    """

    hbar: float
    G: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.hbar) and self.hbar > 0):
            raise ValidationError(f"hbar must be finite and > 0, got {self.hbar!r}")
        if not (math.isfinite(self.G) and self.G >= 0):
            raise ValidationError(f"G must be finite and >= 0, got {self.G!r}")

    @classmethod
    def si(cls) -> "UnitSystem":
        return cls(hbar=HBAR_SI, G=NEWTON_G_SI)

    @classmethod
    def dimensionless(cls, g: float) -> "UnitSystem":
        """hbar = 1 and coupling g = G m^3 l / hbar^2 (species mass m and radius l as units)."""
        return cls(hbar=1.0, G=g)


@dataclass(frozen=True)
class ParticleSpecies:
    """Homogeneous sphere: all matter content there is."""

    mass: float  # kg with UnitSystem.si(), code units otherwise
    radius: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mass) and self.mass > 0):
            raise ValidationError(f"mass must be finite and > 0, got {self.mass!r}")
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise ValidationError(f"radius must be finite and > 0, got {self.radius!r}")


@dataclass(frozen=True)
class Grid1D:
    """Uniform periodic grid for one copy's coordinate: n points from x_min, x_max excluded.

    Built from x_min, x_max and n alone; dx, the sample points x and the
    wavenumbers momentum_grid (in standard transform ordering) are derived
    and read only, so equality and hashing compare the three inputs.
    """

    x_min: float
    x_max: float
    n: int
    dx: float = field(init=False, compare=False)
    x: NDArray[np.float64] = field(init=False, repr=False, compare=False)
    momentum_grid: NDArray[np.float64] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x_min) and math.isfinite(self.x_max) and self.x_max > self.x_min):
            raise ValidationError(f"need x_max > x_min, got [{self.x_min!r}, {self.x_max!r}]")
        if self.n < 8 or (self.n & (self.n - 1)) != 0:
            raise ValidationError(f"n must be a power of two >= 8, got {self.n!r}")
        dx = (self.x_max - self.x_min) / self.n
        x = self.x_min + dx * np.arange(self.n)
        # Standard transform ordering: frequencies 0, 1, ..., n/2-1, -n/2, ..., -1.
        k = 2.0 * math.pi * np.fft.fftfreq(self.n, d=dx)
        object.__setattr__(self, "dx", dx)
        object.__setattr__(self, "x", _readonly(x))
        object.__setattr__(self, "momentum_grid", _readonly(k))

    @property
    def span(self) -> float:
        return self.x_max - self.x_min


@dataclass(frozen=True)
class MetaState:
    """Complex amplitude field over the pair configuration (x, x~).

    amplitudes[i, j] is the value at (x[i], x~[j]).  The squared norm is
    the Riemann sum with weight dx^2.  Instances are immutable; the
    array is marked read only, so the norm is summed once and kept.  A
    caller that hands over a freshly built array and keeps no other
    reference to it passes adopt=True to skip the defensive copy.
    """

    grid: Grid1D
    amplitudes: NDArray[np.complex128] = field(repr=False)
    time: float = 0.0
    adopt: InitVar[bool] = False

    def __post_init__(self, adopt: bool) -> None:
        if adopt:
            a = np.asarray(self.amplitudes, dtype=np.complex128, order="C")
        else:
            a = np.array(self.amplitudes, dtype=np.complex128, copy=True, order="C")
        if a.shape != (self.grid.n, self.grid.n):
            raise ValidationError(
                f"amplitudes shape {a.shape} does not match grid n={self.grid.n}"
            )
        if not np.all(np.isfinite(a.view(np.float64))):
            raise ValidationError("amplitudes contain non-finite entries")
        object.__setattr__(self, "amplitudes", _readonly(a))

    def norm(self) -> float:
        """l2 norm with the dx^2 Riemann weight."""
        return self._norm

    @cached_property
    def _norm(self) -> float:
        return math.sqrt(float(np.vdot(self.amplitudes, self.amplitudes).real)) * self.grid.dx

    def exchange_asymmetry(self) -> float:
        """max |Psi(x, x~) - Psi(x~, x)|; zero for symmetric states."""
        return max_skew(self.amplitudes)


def check_unit_norm(state: MetaState | SeparatedState) -> None:
    """Reject a state whose norm sits more than UNIT_NORM_TOL from 1; never renormalise.

    A SeparatedState is measured on its factors, without gathering it.
    A drift means mass left the grid or the evolution went wrong, so the
    message names the time, the norm and the missing probability 1 - norm^2.
    """
    nrm = state.norm()
    if abs(nrm - 1.0) > UNIT_NORM_TOL:
        raise ValidationError(
            f"expected a normalized state, got norm {nrm!r} at t = {state.time!r} "
            f"(missing probability 1 - norm^2 = {1.0 - nrm * nrm:.3e})"
        )


def check_packet_width(grid: Grid1D, width: float) -> None:
    """Reject a packet width the grid cannot resolve: it must exceed 2 dx."""
    if not (math.isfinite(width) and width > 2.0 * grid.dx):
        raise ValidationError(
            f"width {width!r} under-resolved: need width > 2 dx = {2.0 * grid.dx}"
        )


def free_packet_variance(width: float, mass: float, hbar: float, t: float) -> float:
    """Position variance at time t of a free Gaussian packet of width s at t = 0: s^2 (1 + (hbar t / 2 m s^2)^2)."""
    return width**2 * (1.0 + (hbar * t / (2.0 * mass * width**2)) ** 2)


def free_packet_doubling_time(width: float, mass: float, hbar: float) -> float:
    """When a free Gaussian packet of width s at t = 0 has width 2 s: sqrt(3) 2 m s^2 / hbar."""
    return math.sqrt(3.0) * 2.0 * mass * width**2 / hbar


def _normalized_packet(
    grid: Grid1D, center: float, width: float, momentum: float
) -> tuple[NDArray[np.complex128], float]:
    """Checked, normalized packet samples and the grid norm they were divided by."""
    check_packet_width(grid, width)
    psi = np.exp(-((grid.x - center) ** 2) / (4.0 * width**2) + 1j * momentum * grid.x)
    nrm = math.sqrt(float(np.vdot(psi, psi).real) * grid.dx)
    if nrm == 0.0:
        raise ValidationError("packet has zero mass on the grid")
    psi /= nrm
    # Keep the packet away from the periodic seam: at most 1e-10 of the
    # probability may sit outside the central 80% of the domain.
    lo = grid.x_min + 0.1 * grid.span
    hi = grid.x_max - 0.1 * grid.span
    edge = (grid.x < lo) | (grid.x > hi)
    tail = float(np.sum(np.abs(psi[edge]) ** 2) * grid.dx)
    if tail >= 1e-10:
        raise ValidationError(
            f"packet touches the grid edge: tail mass {tail:.3e} outside the central 80%"
        )
    return psi, nrm


def gaussian_wavepacket(
    grid: Grid1D, center: float, width: float, momentum: float
) -> NDArray[np.complex128]:
    """Normalized single-copy packet psi(x) ~ exp(-(x-c)^2/(4 s^2) + i p x).

    Convention: width s is the position standard deviation at t = 0, so
    the initial position variance is exactly s^2.  The grid is
    dimensionless: momentum p is given in units where hbar = 1.
    """
    return _normalized_packet(grid, center, width, momentum)[0]


def product_metastate(grid: Grid1D, psi: NDArray) -> MetaState:
    """Meta-state psi(x) psi(x~) at t = 0 from one single-copy wavefunction.

    The input is l2-normalized (weight dx) before the outer product, so
    the result has unit norm and exact exchange symmetry.
    """
    p = np.asarray(psi, dtype=np.complex128)
    if p.shape != (grid.n,):
        raise ValidationError(f"psi shape {p.shape} does not match grid n={grid.n}")
    nrm = math.sqrt(float(np.vdot(p, p).real) * grid.dx)
    if not (math.isfinite(nrm) and nrm > 0):
        raise ValidationError("psi is not normalizable")
    p = p / nrm
    amps = np.outer(p, p)
    # Fused multiply-adds in the outer product can leave a one-ulp skew
    # between (i, j) and (j, i); symmetrize so the invariant is exact.
    amps = 0.5 * (amps + amps.T)
    return MetaState(grid=grid, amplitudes=amps)


def gaussian_product_metastate(
    grid: Grid1D, center: float, width: float, momentum: float
) -> MetaState:
    """Both copies in the same Gaussian packet, on the n x n pair grid.

    The start for the 2D engine; separated_product_state builds the same
    state in separated form.  Asymmetric starts are not constructible
    here on purpose: the pair dynamics assumes the two copies begin
    identical.
    """
    psi = gaussian_wavepacket(grid, center, width, momentum)
    return product_metastate(grid, psi)


@dataclass(frozen=True)
class SeparatedState:
    """Pair amplitude as a sum of centre-of-mass times separation factors.

    Psi(x_i, x~_j) = sum_k com[k, i + j] * rel[k, i - j + n]: com[k, s]
    sits at X_s = x_min + s dx / 2 and rel[k, m] at r_m = (m - n) dx, for
    s, m = 0 ... 2n - 1 (see separated_axes), so every pair grid point
    lands exactly on a sample of both factors.  The pair potential acts
    on the separation alone, so the two factors evolve independently, one
    1D problem each.  Both arrays are complex (K, 2n), validated and
    marked read only.  The pair amplitude is formed _ROW_BLOCK rows at a
    time: metastate() writes the blocks into the n x n array, norm() sums
    them without one, once per state.
    """

    grid: Grid1D
    com: NDArray[np.complex128] = field(repr=False)
    rel: NDArray[np.complex128] = field(repr=False)
    time: float = 0.0

    def __post_init__(self) -> None:
        for name in ("com", "rel"):
            a = np.array(getattr(self, name), dtype=np.complex128, copy=True, order="C")
            if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] != 2 * self.grid.n:
                raise ValidationError(
                    f"{name} shape {a.shape} is not (K, 2n) for grid n={self.grid.n}"
                )
            if not np.all(np.isfinite(a.view(np.float64))):
                raise ValidationError(f"{name} contains non-finite entries")
            object.__setattr__(self, name, _readonly(a))
        if self.com.shape != self.rel.shape:
            raise ValidationError(
                f"com shape {self.com.shape} and rel shape {self.rel.shape} differ"
            )

    def _fill_rows(self, out: NDArray[np.complex128] | None = None) -> Iterator[NDArray[np.complex128]]:
        """The pair amplitude _ROW_BLOCK rows at a time, top to bottom: one pass.

        Each entry is sum_k com[k, i + j] rel[k, n + i - j], summed in k
        order, so a block holds bitwise the rows of the whole-array sum.
        The blocks are the row blocks of out (n x n) when it is given, else
        one reused buffer that the next block overwrites.
        """
        n = self.grid.n
        window = np.lib.stride_tricks.sliding_window_view
        # hankel[k, i, j] = com[k, i + j].  toeplitz[k, i, j] = rel[k, n + i - j]
        # = rev[k, n - 1 - i + j] with rev = rel[:, :0:-1] copied, so both run
        # at unit stride along a row.
        hankel = window(self.com[:, :-1], n, axis=-1)
        toeplitz = window(np.ascontiguousarray(self.rel[:, :0:-1]), n, axis=-1)[:, ::-1]
        rows = min(n, _ROW_BLOCK)
        product = np.empty((rows, n), dtype=np.complex128)
        own = np.empty_like(product) if out is None else None
        for i in range(0, n, rows):
            block = own if out is None else out[i:i + rows]
            np.multiply(hankel[0, i:i + rows], toeplitz[0, i:i + rows], out=block)
            for k in range(1, self.com.shape[0]):
                block += np.multiply(hankel[k, i:i + rows], toeplitz[k, i:i + rows], out=product)
            yield block

    def metastate(self) -> MetaState:
        """The amplitude on the pair grid, gathered by exact index arithmetic.

        Mass the factors carry outside the n x n box is dropped here.
        """
        n = self.grid.n
        amps = np.empty((n, n), dtype=np.complex128)
        for _ in self._fill_rows(amps):
            pass
        return MetaState(grid=self.grid, amplitudes=amps, time=self.time, adopt=True)

    def norm(self) -> float:
        """The norm of metastate(), summed block by block with no n x n array."""
        return self._norm

    @cached_property
    def _norm(self) -> float:
        total = 0.0
        for block in self._fill_rows():
            total += float(np.vdot(block, block).real)
        return math.sqrt(total) * self.grid.dx


def separated_axes(grid: Grid1D) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Centre-of-mass samples X_s = x_min + s dx/2 and separations r_m = (m - n) dx."""
    idx = np.arange(2 * grid.n)
    return grid.x_min + 0.5 * grid.dx * idx, grid.dx * (idx - grid.n)


def separated_product_state(
    grid: Grid1D,
    centers: Sequence[float],
    width: float,
    momentum: float,
) -> SeparatedState:
    """psi(x) psi(x~) in separated form, psi the normalized sum of packets at `centers`.

    Equals product_metastate(grid, sum of gaussian_wavepacket(c)) on the
    pair grid, up to rounding; momentum p is given in units where hbar = 1.
    The product of packets a and b is

        exp(-(X - (c_a + c_b)/2)^2 / 2 s^2 + 2 i p X)
          * exp(-(r - (c_a - c_b))^2 / 8 s^2) / (n_a n_b N^2)

    with n_a packet a's grid norm and N the grid norm of the sum of the
    normalized packets.  Terms (a, b) and (b, a) share their centre-of-mass
    factor, so they are stored as one term whose separation factor is even
    in r; the gathered state is then exactly exchange symmetric.
    """
    if len(centers) < 1:
        raise ValidationError("need at least one packet center")
    packets = [_normalized_packet(grid, c, width, momentum) for c in centers]
    total = sum(psi for psi, _ in packets)
    big_n2 = float(np.vdot(total, total).real) * grid.dx
    if not (math.isfinite(big_n2) and big_n2 > 0):
        raise ValidationError("packet sum is not normalizable")
    X, r = separated_axes(grid)
    com, rel = [], []
    for a, ca in enumerate(centers):
        for b in range(a, len(centers)):
            cb = centers[b]
            com.append(np.exp(-((X - 0.5 * (ca + cb)) ** 2) / (2.0 * width**2) + 2j * momentum * X))
            sep = np.exp(-((r - (ca - cb)) ** 2) / (8.0 * width**2))
            if b != a:
                sep = sep + np.exp(-((r - (cb - ca)) ** 2) / (8.0 * width**2))
            rel.append(sep / (packets[a][1] * packets[b][1] * big_n2))
    return SeparatedState(grid=grid, com=np.array(com), rel=np.array(rel))
