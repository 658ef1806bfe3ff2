"""Scenario orchestration and deterministic output emission.

Each scenario writes plot-ready CSVs (full-precision, round-trip-safe
floats), binary field dumps with JSON sidecars, and a summary.json of
acceptance-relevant scalars.  A manifest.json with the resolved config,
timestamps, and per-file checksums is written last.  Scientific outputs
are byte-identical across repeated runs and worker-thread counts;
timestamps live only in the manifest.
"""
from __future__ import annotations

import datetime
import hashlib
import io
import json
import math
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np
from numpy.typing import NDArray

from ._version import __version__
from .config import ScenarioConfig
from .core import Grid1D, MetaState, ValidationError, free_packet_doubling_time, free_packet_variance
# Unused here, but perfbench/child.py traces state preparation under these names.
from .core import gaussian_product_metastate, gaussian_wavepacket, product_metastate  # noqa: F401
from .evolve import NumericalAbort, dyson_first_order, evolve, fft_workers, first_order_position_density
from .interferometer import FirstOrderSweep, first_order_sweep, pair_enumeration_oracle
from .reduction import DecoherenceReport, decoherence_report, partial_trace, structural_checks

TIMESERIES_COLUMNS = ("t", "norm", "purity", "linear_entropy", "vn_entropy", "coherence_offdiag")
_COW_COLUMNS = ("delta", "prob_zeroth", "re_Aa_star", "im_Aa_star", "S_G0", "S_G1")
_POTENTIAL_COLUMNS = ("r", "V_G")


def _potential_table(cfg: ScenarioConfig) -> tuple[NDArray, NDArray]:
    """The columns of _POTENTIAL_COLUMNS: V of cfg's pair at potential.samples evenly spaced r on [0, potential.r_max]."""
    r = np.linspace(0.0, cfg.values["potential.r_max"], cfg.values["potential.samples"])
    return r, cfg.pairs[0].evaluate(r)


@dataclass(frozen=True)
class RunManifest:
    version: str
    scenario: str
    config: dict[str, str]
    started_utc: str
    finished_utc: str
    status: str                     # ok | numerical-abort | error
    outputs: dict[str, dict[str, object]]
    diagnostic: str | None = None


class _Emitter:
    """Writes outputs into the run directory and tracks their checksums."""

    def __init__(self, out: Path):
        self.out = out
        self.records: dict[str, dict[str, object]] = {}

    def emit(self, name: str, data: bytes) -> None:
        (self.out / name).write_bytes(data)
        self.records[name] = {
            "sha256": hashlib.sha256(data).hexdigest(),
            "bytes": len(data),
        }


def csv_bytes(header: tuple[str, ...], columns: Sequence) -> bytes:
    """The CSV of columns under header, one row per entry, each value as repr(float).

    A column is a sequence of numbers, or one number that repeats on every
    row; its text is made once.  The sequences, at least one, must have one
    length.
    """
    arrays = [np.asarray(c, dtype=np.float64) for c in columns]
    rows = next(len(a) for a in arrays if a.ndim)
    texts = [list(map(repr, a.tolist())) if a.ndim else [repr(float(a))] * rows for a in arrays]
    return ("\n".join([",".join(header), *map(",".join, zip(*texts, strict=True))]) + "\n").encode()


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode()


def _npy_bytes(arr: NDArray) -> bytes:
    buf = io.BytesIO()
    np.save(buf, arr)
    return buf.getvalue()


def _emit_field(emit: _Emitter, cfg: ScenarioConfig, stem: str, name: str, time: float, arr: NDArray) -> None:
    """Write field `name` on the run's grid as stem.npy plus its JSON sidecar stem.json."""
    grid = cfg.start.grid
    emit.emit(f"{stem}.npy", _npy_bytes(arr))
    emit.emit(f"{stem}.json", _json_bytes({
        "field": name,
        "time": time,
        "units_mode": "dimensionless",  # every run that writes a field has hbar = 1
        "dtype": str(arr.dtype),
        "shape": list(arr.shape),
        "grid": {"x_min": grid.x_min, "x_max": grid.x_max, "n": grid.n, "dx": grid.dx},
    }))


@dataclass(frozen=True)
class _Observation:
    """One record of a full run: health checks and decoherence of one reduced state."""

    checks: dict[str, float]
    report: DecoherenceReport


def _full_observer(d_cut: float) -> Callable[[MetaState], _Observation]:
    def observe(state: MetaState) -> _Observation:
        rho = partial_trace(state)
        return _Observation(structural_checks(state, rho), decoherence_report(rho, d_cut))

    return observe


def _invariant_summary(checks: Sequence[Mapping[str, float]]) -> dict[str, float]:
    # np.max and np.min pass on a NaN from any record; the builtins keep
    # or drop it by where it sits.
    return {
        "max_norm_drift": float(np.max([c["norm_drift"] for c in checks])),
        "max_exchange_asymmetry": float(np.max([c["exchange_asymmetry"] for c in checks])),
        "max_hermiticity": float(np.max([c["hermiticity"] for c in checks])),
        "max_trace_error": float(np.max([c["trace_error"] for c in checks])),
        "min_eigenvalue": float(np.min([c["min_eigenvalue"] for c in checks])),
    }


def _observed_runs(
    cfg: ScenarioConfig, emit: _Emitter, names: Sequence[str]
) -> list[tuple[NDArray[np.float64], list[_Observation]]]:
    """Times and full observations of cfg's start evolved under each of its pairs, in one scan; each time series goes to its CSV name."""
    observer = _full_observer(cfg.values["report.d_cut"])
    runs = []
    for record, name in zip(evolve(cfg.start, cfg.pairs, cfg=cfg.evolution, observer=observer), names):
        observed = record.reduced_observables
        assert observed is not None
        rows = [(o.checks["norm"], o.report.purity, o.report.linear_entropy, o.report.von_neumann_entropy,
                 o.report.coherence_offdiag) for o in observed]
        emit.emit(name, csv_bytes(TIMESERIES_COLUMNS, (record.times, *zip(*rows))))
        runs.append((record.times, observed))
    return runs


def _density_moments(grid: Grid1D, density: NDArray) -> tuple[float, float]:
    mass = float(np.sum(density) * grid.dx)
    mean = float(np.sum(grid.x * density) * grid.dx) / mass
    var = float(np.sum((grid.x - mean) ** 2 * density) * grid.dx) / mass
    return mean, var


# --- scenarios ---------------------------------------------------------------


def _run_potential_scan(cfg: ScenarioConfig, emit: _Emitter) -> dict:
    [pair] = cfg.pairs
    r, vals = _potential_table(cfg)
    emit.emit("potential.csv", csv_bytes(_POTENTIAL_COLUMNS, (r, vals)))

    G, m, R = pair.units.G, pair.species.mass, pair.species.radius
    scale = G * m * m / R
    v0 = pair.evaluate(0.0)
    v_contact = pair.evaluate(2.0 * R)
    gap = abs(pair.evaluate(2.0 * R * (1 - 1e-9)) - pair.evaluate(2.0 * R * (1 + 1e-9)))
    return {
        "v_at_zero": v0,
        "v_at_contact": v_contact,
        "golden_v0_rel_err": abs(v0 - (-0.6 * scale)) / (0.6 * scale) if scale else 0.0,
        "golden_contact_rel_err": abs(v_contact - (-0.25 * scale)) / (0.25 * scale) if scale else 0.0,
        "continuity_rel_gap": gap / abs(v_contact) if v_contact else 0.0,
        "monotone_nondecreasing": bool(np.all(np.diff(vals) >= -1e-12 * abs(v0))),
        "max_value": float(np.max(vals)),
        "r_v_product_at_r_max": float(r[-1] * vals[-1]),
    }


def _run_free_check(cfg: ScenarioConfig, emit: _Emitter) -> dict:
    assert cfg.start is not None and cfg.evolution is not None
    grid = cfg.start.grid
    [pair] = cfg.pairs  # at G = 0
    width = cfg.values["packet.width"]
    center = cfg.values["packet.center"]
    momentum = cfg.values["packet.momentum"]
    [(times, observed)] = _observed_runs(cfg, emit, ("timeseries.csv",))

    # Free-packet oracle: the spreading law, center drifting at momentum / mass.
    hbar, mass = pair.units.hbar, pair.species.mass
    worst_var = 0.0
    for t, o in zip(times, observed):
        _, var = _density_moments(grid, o.report.position_density)
        exact = free_packet_variance(width, mass, hbar, t)
        worst_var = max(worst_var, abs(var - exact) / exact)

    t_end = float(times[-1])
    sig2 = free_packet_variance(width, mass, hbar, t_end)
    mu = center + momentum / mass * t_end
    exact_density = np.exp(-((grid.x - mu) ** 2) / (2.0 * sig2)) / math.sqrt(2.0 * math.pi * sig2)
    final_density = observed[-1].report.position_density
    density_err = float(np.max(np.abs(final_density - exact_density)) / np.max(exact_density))

    _emit_field(emit, cfg, "density_final", "position_density", t_end, final_density)

    return {
        "spreading_sigma2_max_rel_err": worst_var,
        "density_final_max_rel_err": density_err,
        "max_purity_deviation": max(abs(o.report.purity - 1.0) for o in observed),
        "doubling_time": free_packet_doubling_time(width, mass, hbar),
        "final_time": t_end,
        **_invariant_summary([o.checks for o in observed]),
    }


def _run_two_packet(cfg: ScenarioConfig, emit: _Emitter) -> dict:
    d_cut = cfg.values["report.d_cut"]
    g_demo = cfg.values["coupling.g"]
    couplings = [p.units.G for p in cfg.pairs]
    per_g: dict[float, dict] = {}
    checks: list[dict[str, float]] = []
    names = [f"timeseries_g{g!r}.csv" for g in couplings]
    for g, (times, observed) in zip(couplings, _observed_runs(cfg, emit, names)):
        purities = [o.report.purity for o in observed]
        # Initial decay rate: purity lost per unit time over the first tenth of the run.
        t0 = float(times[0])
        horizon = t0 + 0.1 * (float(times[-1]) - t0)
        k = next(i for i, t in enumerate(times) if t >= horizon)
        rate = (purities[0] - purities[k]) / (float(times[k]) - t0)
        per_g[g] = {
            "final_purity": purities[-1],
            "min_purity": min(purities),
            "initial_decay_rate": rate,
            "final_vn_entropy": observed[-1].report.von_neumann_entropy,
            "final_coherence_offdiag": observed[-1].report.coherence_offdiag,
        }
        checks.extend(o.checks for o in observed)
        if g == g_demo:
            dens = observed[-1].report.position_density
            _emit_field(emit, cfg, "rho_diag_final", "rho_diagonal", float(times[-1]), dens)

    rates = [per_g[g]["initial_decay_rate"] for g in couplings]
    return {
        "couplings": list(couplings),
        "demonstration_coupling": g_demo,
        "d_cut": d_cut,
        "per_coupling": {repr(g): per_g[g] for g in couplings},
        "demo_purity_drop": 1.0 - per_g[g_demo]["min_purity"],
        "decay_rates": rates,
        "decay_rates_nondecreasing": all(b >= a for a, b in zip(rates, rates[1:])),
        **_invariant_summary(checks),
    }


def _run_perturbative(cfg: ScenarioConfig, emit: _Emitter) -> dict:
    assert cfg.start is not None and cfg.evolution is not None
    grid = cfg.start.grid
    couplings = [p.units.G for p in cfg.pairs]  # g0 / 2^j, g0 = coupling.g

    # One Dyson pass at g0, first: its perturbative-window guard at g0 is the
    # cheapest way this scenario can fail.  psi0 does not depend on g and
    # psi1 is linear in it, so the first-order density at g0 / 2^j scales
    # psi1's term by 2^-j, exact in floating point.  Only the first-order
    # densities outlive the pass.
    pair0 = cfg.pairs[0]
    psi0, psi1 = dyson_first_order(cfg.start, pair0, cfg=cfg.evolution)
    approx_densities = first_order_position_density(psi0, psi1, [0.5**j for j in range(len(couplings))])
    del psi0, psi1

    records = evolve(cfg.start, cfg.pairs, cfg=cfg.evolution, observer=structural_checks)
    residuals = []
    checks: list[dict[str, float]] = []
    for record, approx_density in zip(records, approx_densities):
        assert record.reduced_observables is not None
        full_density = np.sum(np.abs(record.final_state.amplitudes) ** 2, axis=1) * grid.dx
        residuals.append(float(np.max(np.abs(full_density - approx_density))))
        checks.extend(record.reduced_observables)

    ratios = [a / b for a, b in zip(residuals, residuals[1:])]
    emit.emit("residuals.csv", csv_bytes(("g", "max_residual"), (couplings, residuals)))
    return {
        "couplings": couplings,
        "residuals": residuals,
        "halving_ratios": ratios,
        "ratios_within_band": all(3.5 <= r <= 4.5 for r in ratios),
        "first_order_mass": float(np.sum(approx_densities[0]) * grid.dx),
        "action_estimate_over_hbar": pair0.action_over_hbar(cfg.evolution.dt * cfg.evolution.steps),
        **_invariant_summary(checks),
    }


def _cow_sweep(cfg: ScenarioConfig) -> tuple[NDArray[np.float64], bytes, FirstOrderSweep]:
    """The deltas of cfg's sweep, the sweep as CSV, and the closed-form correction over them as columns."""
    deltas = np.linspace(
        cfg.values["cow.delta_start"], cfg.values["cow.delta_stop"], cfg.values["cow.delta_points"]
    )
    # read() checked both ends against the geometry, so every delta between them passes.
    sweep = first_order_sweep(cfg.two_arm, deltas)
    columns = (deltas, sweep.prob_zeroth, sweep.Aa_star.real, sweep.Aa_star.imag, sweep.S_G0, sweep.S_G1)
    return deltas, csv_bytes(_COW_COLUMNS, columns), sweep


def _run_cow_sweep(cfg: ScenarioConfig, emit: _Emitter) -> dict:
    deltas, sweep_csv, sweep = _cow_sweep(cfg)
    emit.emit("cow.csv", sweep_csv)
    # The enumeration at the sweep's deltas, compared point by point.  Its
    # prob_zeroth traces the hidden copy over both exit ports, so it matches
    # the closed form's cos^2(delta / 2 hbar) only if those ports sum to one.
    # The gap in A a* is the complex modulus, so it covers both parts.
    enum = [pair_enumeration_oracle(replace(cfg.two_arm, delta=float(d))) for d in deltas]
    return {
        "max_abs_re_AaStar": float(np.max(np.abs(sweep.Aa_star.real))),
        "max_abs_AaStar": float(np.max(np.abs(sweep.Aa_star))),
        "max_abs_prob_correction": float(np.max(np.abs(sweep.prob_correction))),
        "enum_max_abs_AaStar_err": max(abs(e.Aa_star - a) for e, a in zip(enum, sweep.Aa_star.tolist())),
        "enum_max_abs_prob_zeroth_err": max(
            abs(e.prob_zeroth - p) for e, p in zip(enum, sweep.prob_zeroth.tolist())
        ),
        "S_G0": sweep.S_G0,
        "S_G1": sweep.S_G1,
        "S_G0_over_hbar": sweep.S_G0 / cfg.two_arm.units.hbar,
    }


_DISPATCH = {
    "potential-scan": _run_potential_scan,
    "free-check": _run_free_check,
    "two-packet-decoherence": _run_two_packet,
    "perturbative-crosscheck": _run_perturbative,
    "cow-sweep": _run_cow_sweep,
}


def _utcnow() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")


def run(cfg: ScenarioConfig, out_dir: str | Path) -> RunManifest:
    """Execute one scenario; emit outputs, summary, and the manifest (last).

    Any failure during the run still produces a manifest whose status
    (numerical-abort for NumericalAbort, error otherwise) and diagnostic
    explain it; the original exception is then re-raised for the caller's
    exit handling.  The output directory must be missing or empty, so that
    the manifest covers every file in it; a non-empty one, or a
    GRAVTWIN_WORKERS that fft_workers refuses, is rejected before any write.
    """
    fft_workers()
    out = Path(out_dir)
    if out.is_dir() and any(out.iterdir()):
        raise ValidationError(f"output directory {str(out)!r} is not empty; use a fresh one")
    out.mkdir(parents=True, exist_ok=True)
    emitter = _Emitter(out)
    started = _utcnow()
    status, diagnostic, failure = "ok", None, None
    try:
        summary = _DISPATCH[cfg.scenario](cfg, emitter)
        emitter.emit("summary.json", _json_bytes(summary))
    except NumericalAbort as exc:
        status, diagnostic, failure = "numerical-abort", str(exc), exc
    except Exception as exc:  # recorded in the manifest, then re-raised
        status, diagnostic, failure = "error", f"{type(exc).__name__}: {exc}", exc
    manifest = RunManifest(
        version=__version__,
        scenario=cfg.scenario,
        config=dict(sorted(cfg.resolved.items())),
        started_utc=started,
        finished_utc=_utcnow(),
        status=status,
        outputs=dict(sorted(emitter.records.items())),
        diagnostic=diagnostic,
    )
    (out / "manifest.json").write_bytes(_json_bytes(asdict(manifest)))
    if failure is not None:
        raise failure
    return manifest
