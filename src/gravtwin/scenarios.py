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
from typing import Callable, Mapping

import numpy as np
from numpy.typing import NDArray

from ._version import __version__
from .config import ScenarioConfig
from .core import (
    ExternalPotential,
    Grid1D,
    MetaState,
    UnitSystem,
    ValidationError,
    gaussian_product_metastate,
    gaussian_wavepacket,
    product_metastate,
)
from .evolve import NumericalAbort, dyson_first_order, evolve, first_order_position_density
from .interferometer import (
    InterferometerConfig,
    correction,
    harmonic_coefficient_diff,
    pair_enumeration_oracle,
    zeroth_order_probability,
)
from .potential import PairPotential
from .reduction import decoherence_report, partial_trace, structural_checks

TIMESERIES_COLUMNS = ("t", "norm", "purity", "linear_entropy", "vn_entropy", "coherence_offdiag")


@dataclass(frozen=True)
class RunManifest:
    version: str
    scenario: str
    config: dict[str, str]
    started_utc: str
    finished_utc: str
    status: str                     # ok | numerical-abort
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


def csv_bytes(header: tuple[str, ...], rows) -> bytes:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(float(v)) for v in row))
    return ("\n".join(lines) + "\n").encode()


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode()


def _npy_bytes(arr: NDArray) -> bytes:
    buf = io.BytesIO()
    np.save(buf, arr)
    return buf.getvalue()


def _sidecar(grid: Grid1D, time: float, units: UnitSystem, name: str, arr: NDArray) -> dict:
    return {
        "field": name,
        "time": time,
        "units_mode": units.mode,
        "dtype": str(arr.dtype),
        "shape": list(arr.shape),
        "grid": {"x_min": grid.x_min, "x_max": grid.x_max, "n": grid.n, "dx": grid.dx},
    }


def _invariant_observer() -> Callable[[MetaState], Mapping[str, float]]:
    def observe(state: MetaState) -> Mapping[str, float]:
        return structural_checks(state)

    return observe


def _full_observer(d_cut: float) -> Callable[[MetaState], Mapping[str, float]]:
    def observe(state: MetaState) -> Mapping[str, float]:
        rho = partial_trace(state)
        rep = decoherence_report(rho, d_cut)
        out = dict(structural_checks(state, rho))
        out.update(
            purity=rep.purity,
            linear_entropy=rep.linear_entropy,
            vn_entropy=rep.von_neumann_entropy,
            coherence_offdiag=rep.coherence_offdiag,
        )
        out["_density"] = rep.position_density  # stripped before CSV emission
        return out

    return observe


def _invariant_summary(observed) -> dict[str, float]:
    return {
        "max_norm_drift": max(o["norm_drift"] for o in observed),
        "max_exchange_asymmetry": max(o["exchange_asymmetry"] for o in observed),
        "max_hermiticity": max(o["hermiticity"] for o in observed),
        "max_trace_error": max(o["trace_error"] for o in observed),
        "min_eigenvalue": min(o["min_eigenvalue"] for o in observed),
    }


def _merge_worst(worst: dict[str, float], inv: Mapping[str, float]) -> None:
    """Fold one run's invariant summary into the worst values seen so far."""
    for key, val in inv.items():
        if key == "min_eigenvalue":
            worst[key] = min(worst.get(key, val), val)
        else:
            worst[key] = max(worst.get(key, val), val)


def _timeseries_rows(times, observed):
    for t, o in zip(times, observed):
        yield (t, o["norm"], o["purity"], o["linear_entropy"], o["vn_entropy"], o["coherence_offdiag"])


def _two_packet_state(grid: Grid1D, width: float, separation: float, momentum: float) -> MetaState:
    left = gaussian_wavepacket(grid, -0.5 * separation, width, momentum)
    right = gaussian_wavepacket(grid, +0.5 * separation, width, momentum)
    return product_metastate(grid, left + right)


def _density_moments(grid: Grid1D, density: NDArray) -> tuple[float, float]:
    mass = float(np.sum(density) * grid.dx)
    mean = float(np.sum(grid.x * density) * grid.dx) / mass
    var = float(np.sum((grid.x - mean) ** 2 * density) * grid.dx) / mass
    return mean, var


# --- scenarios ---------------------------------------------------------------


def _run_potential_scan(cfg: ScenarioConfig, emit: _Emitter) -> dict:
    pair = PairPotential(species=cfg.species, units=cfg.units)
    r_max = float(cfg.params["r_max"])
    r = np.linspace(0.0, r_max, int(cfg.params["samples"]))
    vals = pair.evaluate(r)
    emit.emit("potential.csv", csv_bytes(("r", "V_G"), zip(r, vals)))

    G, m, R = cfg.units.G, cfg.species.mass, cfg.species.radius
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
    assert cfg.grid is not None and cfg.evolution is not None
    grid = cfg.grid
    width = float(cfg.params["width"])
    center = float(cfg.params["center"])
    momentum = float(cfg.params["momentum"])
    state = gaussian_product_metastate(grid, center, width, momentum, hbar=cfg.units.hbar)
    pair = PairPotential(species=cfg.species, units=cfg.units)  # G = 0 here

    observer = _full_observer(float(cfg.params["d_cut"]))
    record = evolve(state, ExternalPotential.null(), pair, cfg.evolution, observer=observer)
    observed = record.reduced_observables
    assert observed is not None

    emit.emit("timeseries.csv", csv_bytes(TIMESERIES_COLUMNS, _timeseries_rows(record.times, observed)))

    # Free-packet oracle: variance s^2(t) = s0^2 (1 + (hbar t / 2 m s0^2)^2),
    # center drifting at momentum / mass.
    hbar, mass = cfg.units.hbar, cfg.species.mass
    worst_var = 0.0
    for t, o in zip(record.times, observed):
        _, var = _density_moments(grid, o["_density"])
        exact = width**2 * (1.0 + (hbar * t / (2.0 * mass * width**2)) ** 2)
        worst_var = max(worst_var, abs(var - exact) / exact)

    t_end = float(record.times[-1])
    sig2 = width**2 * (1.0 + (hbar * t_end / (2.0 * mass * width**2)) ** 2)
    mu = center + momentum / mass * t_end
    exact_density = np.exp(-((grid.x - mu) ** 2) / (2.0 * sig2)) / math.sqrt(2.0 * math.pi * sig2)
    final_density = observed[-1]["_density"]
    density_err = float(np.max(np.abs(final_density - exact_density)) / np.max(exact_density))

    emit.emit("density_final.npy", _npy_bytes(np.asarray(final_density)))
    emit.emit(
        "density_final.json",
        _json_bytes(_sidecar(grid, t_end, cfg.units, "position_density", np.asarray(final_density))),
    )

    doubling_time = math.sqrt(3.0) * 2.0 * mass * width**2 / hbar
    return {
        "spreading_sigma2_max_rel_err": worst_var,
        "density_final_max_rel_err": density_err,
        "max_purity_deviation": max(abs(o["purity"] - 1.0) for o in observed),
        "doubling_time": doubling_time,
        "final_time": t_end,
        **_invariant_summary(observed),
    }


def _run_two_packet(cfg: ScenarioConfig, emit: _Emitter) -> dict:
    assert cfg.grid is not None and cfg.evolution is not None
    grid = cfg.grid
    width = float(cfg.params["width"])
    separation = float(cfg.params["separation"])
    momentum = float(cfg.params["momentum"])
    d_cut = float(cfg.params["d_cut"])
    g_demo = cfg.units.G
    couplings = sorted(set(cfg.params["couplings"]) | {g_demo})

    state = _two_packet_state(grid, width, separation, momentum)
    per_g: dict[float, dict] = {}
    worst: dict[str, float] = {}
    for g in couplings:
        units_g = UnitSystem.dimensionless(g)
        pair = PairPotential(species=cfg.species, units=units_g)
        record = evolve(state, ExternalPotential.null(), pair, cfg.evolution, observer=_full_observer(d_cut))
        observed = record.reduced_observables
        assert observed is not None
        emit.emit(
            f"timeseries_g{g!r}.csv",
            csv_bytes(TIMESERIES_COLUMNS, _timeseries_rows(record.times, observed)),
        )
        purities = [o["purity"] for o in observed]
        # Initial decay rate: purity lost per unit time over the first tenth of the run.
        t0 = float(record.times[0])
        horizon = t0 + 0.1 * (float(record.times[-1]) - t0)
        k = next(i for i, t in enumerate(record.times) if t >= horizon)
        rate = (purities[0] - purities[k]) / (float(record.times[k]) - t0)
        per_g[g] = {
            "final_purity": purities[-1],
            "min_purity": min(purities),
            "initial_decay_rate": rate,
            "final_vn_entropy": observed[-1]["vn_entropy"],
            "final_coherence_offdiag": observed[-1]["coherence_offdiag"],
        }
        _merge_worst(worst, _invariant_summary(observed))
        if g == g_demo:
            dens = np.asarray(observed[-1]["_density"])
            emit.emit("rho_diag_final.npy", _npy_bytes(dens))
            emit.emit(
                "rho_diag_final.json",
                _json_bytes(_sidecar(grid, float(record.times[-1]), units_g, "rho_diagonal", dens)),
            )

    rates = [per_g[g]["initial_decay_rate"] for g in couplings]
    return {
        "couplings": list(couplings),
        "demonstration_coupling": g_demo,
        "d_cut": d_cut,
        "per_coupling": {repr(g): per_g[g] for g in couplings},
        "demo_purity_drop": 1.0 - per_g[g_demo]["min_purity"],
        "decay_rates": rates,
        "decay_rates_nondecreasing": all(b >= a for a, b in zip(rates, rates[1:])),
        **worst,
    }


def _run_perturbative(cfg: ScenarioConfig, emit: _Emitter) -> dict:
    assert cfg.grid is not None and cfg.evolution is not None
    grid = cfg.grid
    state = _two_packet_state(
        grid,
        float(cfg.params["width"]),
        float(cfg.params["separation"]),
        float(cfg.params["momentum"]),
    )
    g0 = cfg.units.G
    halvings = int(cfg.params["halvings"])
    couplings = [g0 / 2**j for j in range(halvings + 1)]

    full_densities = []
    worst: dict[str, float] = {}
    for g in couplings:
        pair = PairPotential(species=cfg.species, units=UnitSystem.dimensionless(g))
        record = evolve(state, ExternalPotential.null(), pair, cfg.evolution, observer=_invariant_observer())
        assert record.reduced_observables is not None
        full_densities.append(np.sum(np.abs(record.final_state.amplitudes) ** 2, axis=1) * grid.dx)
        _merge_worst(worst, _invariant_summary(record.reduced_observables))
    del record

    # One Dyson pass at g0, after the full runs so its channels never share
    # memory with them.  psi0 does not depend on g and psi1 is linear in it,
    # so psi1(g0 / 2^j) = 2^-j psi1(g0), exact in floating point.  The
    # pass's perturbative-window guard runs at g0, the coupling that binds.
    pair0 = PairPotential(species=cfg.species, units=cfg.units)
    psi0, psi1 = dyson_first_order(state, ExternalPotential.null(), pair0, cfg.evolution)
    residuals = []
    first_order_mass = None
    for j, full_density in enumerate(full_densities):
        psi1_g = MetaState(grid=grid, amplitudes=0.5**j * psi1.amplitudes, time=psi1.time)
        approx_density = first_order_position_density(psi0, psi1_g)
        residuals.append(float(np.max(np.abs(full_density - approx_density))))
        if first_order_mass is None:
            first_order_mass = float(np.sum(approx_density) * grid.dx)

    ratios = [a / b for a, b in zip(residuals, residuals[1:])]
    t_total = cfg.evolution.dt * cfg.evolution.steps
    emit.emit("residuals.csv", csv_bytes(("g", "max_residual"), zip(couplings, residuals)))
    return {
        "couplings": couplings,
        "residuals": residuals,
        "halving_ratios": ratios,
        "ratios_within_band": all(3.5 <= r <= 4.5 for r in ratios),
        "first_order_mass": first_order_mass,
        "action_estimate_over_hbar": abs(pair0.evaluate(0.0)) * t_total / cfg.units.hbar,
        **worst,
    }


def _run_cow_sweep(cfg: ScenarioConfig, emit: _Emitter) -> dict:
    L = float(cfg.params["L"])
    v = float(cfg.params["v"])
    deltas = np.linspace(
        float(cfg.params["delta_start"]),
        float(cfg.params["delta_stop"]),
        int(cfg.params["delta_points"]),
    )
    hbar = cfg.units.hbar

    rows = []
    max_re = 0.0
    max_abs = 0.0
    max_prob_corr = 0.0
    enum_max_re = 0.0
    comp_max = 0.0
    base = InterferometerConfig(species=cfg.species, L=L, v=v, delta=0.0, units=cfg.units)
    for d in deltas:
        icfg = replace(base, delta=float(d))
        res = correction(icfg)
        rows.append((d, res.prob_zeroth, res.Aa_star.real, res.Aa_star.imag, res.S_G0, res.S_G1))
        max_re = max(max_re, abs(res.Aa_star.real))
        max_abs = max(max_abs, abs(res.Aa_star))
        max_prob_corr = max(max_prob_corr, abs(res.prob_correction))
        enum_max_re = max(enum_max_re, abs(pair_enumeration_oracle(icfg).Aa_star.real))
        other = zeroth_order_probability(replace(base, delta=float(d) + math.pi * hbar))
        comp_max = max(comp_max, abs(res.prob_zeroth + other - 1.0))

    emit.emit(
        "cow.csv",
        csv_bytes(("delta", "prob_zeroth", "re_Aa_star", "im_Aa_star", "S_G0", "S_G1"), rows),
    )
    diff = harmonic_coefficient_diff(base)
    res0 = correction(base)
    return {
        "max_abs_re_AaStar": max_re,
        "max_abs_AaStar": max_abs,
        "max_abs_prob_correction": max_prob_corr,
        "enum_max_abs_re_AaStar": enum_max_re,
        "complementary_sum_max_err": comp_max,
        "harmonic_coefficients": {
            "closed_form": diff.closed_form,
            "enumeration": diff.enumeration,
            "max_abs_difference": diff.max_abs_difference,
        },
        "S_G0": res0.S_G0,
        "S_G1": res0.S_G1,
        "S_G0_over_hbar": res0.S_G0 / hbar,
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

    Numerical aborts still produce a manifest whose diagnostic block
    explains the failure, then re-raise for the caller's exit handling.
    The output directory must be missing or empty, so that the manifest
    covers every file in it; a non-empty one is rejected before any write.
    """
    out = Path(out_dir)
    if out.is_dir() and any(out.iterdir()):
        raise ValidationError(f"output directory {str(out)!r} is not empty; use a fresh one")
    out.mkdir(parents=True, exist_ok=True)
    emitter = _Emitter(out)
    started = _utcnow()
    status, diagnostic = "ok", None
    try:
        summary = _DISPATCH[cfg.scenario](cfg, emitter)
        emitter.emit("summary.json", _json_bytes(summary))
    except NumericalAbort as exc:
        status, diagnostic = "numerical-abort", str(exc)
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
    if diagnostic is not None:
        raise NumericalAbort(diagnostic)
    return manifest
