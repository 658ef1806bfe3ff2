"""Seeded inputs for the benchmark workloads (stdlib only).

The same seed always yields the same inputs.  Every value is drawn from a
range the package documents as valid, so no operation should fail on a
correct build:

- grid workloads run at n = 512 on the default domain [-16, 16]; the
  coupling and packet separation vary with the seed, the sizes do not;
- geometry-scan draws custom geometries from a fixed physical range.
"""
from __future__ import annotations

import math
import random

HBAR_SI = 1.054571817e-34
FRINGE = 2.0 * math.pi * HBAR_SI  # one fringe period in delta, J s

WORKLOADS = ("decoherence", "crosscheck", "geometry-scan")

# Sizes per operation, chosen so one operation takes a few seconds on a
# 2-core machine and a run holds several operations.
GRID_N = 512
DECOHERENCE_STEPS, DECOHERENCE_RECORD_EVERY = 20, 5
CROSSCHECK_STEPS = 40  # fewer steps push the residuals to the rounding floor
GEOMETRIES_PER_OP, GEOMETRY_POINTS = 24, 64

# Physical range of geometry-scan: neutron-like up to heavy-molecule
# masses, nuclear to nanometre radii, table-top arms, slow to thermal beams.
GEOMETRY_RANGE = {
    "log10_mass_kg": (-27.0, -24.0),
    "log10_radius_m": (-15.0, -9.0),
    "L_m": (0.02, 1.0),
    "log10_v_m_per_s": (1.5, 3.5),
}


def _rng(seed: int, *tag: object) -> random.Random:
    return random.Random(":".join(str(t) for t in (seed, *tag)))


def make_inputs(workload: str, seed: int) -> dict:
    """Inputs for one run of a workload, as a JSON-ready dict."""
    rng = _rng(seed, workload)
    if workload == "decoherence":
        # coupling.g > 0; separation > 2 x width (0.7) and inside the domain.
        g = rng.uniform(0.25, 0.75)
        return {
            "scenario": "two-packet-decoherence",
            "coupling.g": g,
            "scan.couplings": g,
            "packet.separation": rng.uniform(6.0, 9.0),
            "grid.n": GRID_N,
            "evolution.steps": DECOHERENCE_STEPS,
            "evolution.record_every": DECOHERENCE_RECORD_EVERY,
        }
    if workload == "crosscheck":
        # |V(0)| T / hbar = 0.6 g dt steps stays far below the 0.1 limit,
        # and the residuals stay well above rounding, so the halving
        # ratio lies inside the scenario's [3.5, 4.5] band.
        return {
            "scenario": "perturbative-crosscheck",
            "coupling.g": rng.uniform(0.35, 0.6),
            "packet.separation": rng.uniform(3.0, 5.0),
            "grid.n": GRID_N,
            "dyson.halvings": 1,
            "evolution.steps": CROSSCHECK_STEPS,
            "evolution.record_every": CROSSCHECK_STEPS,
        }
    if workload == "geometry-scan":
        return {
            "geometries_per_op": GEOMETRIES_PER_OP,
            "points": GEOMETRY_POINTS,
            "range": GEOMETRY_RANGE,
        }
    raise ValueError(f"unknown workload {workload!r}")


def config_text(inputs: dict) -> str:
    """Scenario config file for a grid workload."""
    return "".join(f"{k} = {v!r}\n" if isinstance(v, float) else f"{k} = {v}\n"
                   for k, v in inputs.items())


def op_geometries(seed: int, k: int) -> list[dict]:
    """The geometries of operation k of geometry-scan, new for every k.

    A Latin hypercube over GEOMETRY_RANGE: each operation covers every
    range evenly, so operations cost about the same while no geometry
    repeats (the separating-action quadrature cost grows with log(L / R)).
    """
    rng = _rng(seed, "geometry", k)
    n = GEOMETRIES_PER_OP
    columns = {}
    for key, (lo, hi) in GEOMETRY_RANGE.items():
        strata = rng.sample(range(n), n)
        columns[key] = [lo + (hi - lo) * (i + rng.random()) / n for i in strata]
    return [
        {
            "mass": 10.0 ** columns["log10_mass_kg"][j],
            "radius": 10.0 ** columns["log10_radius_m"][j],
            "L": columns["L_m"][j],
            "v": 10.0 ** columns["log10_v_m_per_s"][j],
            "delta_stop": rng.uniform(1.0, 4.0) * FRINGE,
        }
        for j in range(n)
    ]


def cow_argv(geo: dict, out: str) -> list[str]:
    """`gravtwin cow` arguments for one geometry."""
    return [
        "cow", "--mass", repr(geo["mass"]), "--radius", repr(geo["radius"]),
        "--L", repr(geo["L"]), "--v", repr(geo["v"]),
        "--delta-sweep", f"0:{geo['delta_stop']!r}:{GEOMETRY_POINTS}", "--out", out,
    ]
