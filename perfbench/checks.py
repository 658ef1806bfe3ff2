"""Output checks for one benchmark operation.

The checks test physics and bookkeeping, never bytes against an older
build, so a later algorithm may move the last digits within the stated
tolerances.  Each check function returns a list of problems; empty means
the operation's outputs are correct.  Tolerances follow the acceptance
criteria of the package's test suite where one exists.
"""
from __future__ import annotations

import hashlib
import io
import json
from pathlib import Path

import numpy as np

from inputs import HBAR_SI

G_SI = 6.67430e-11
SWEEP_HEADER = "delta,prob_zeroth,re_Aa_star,im_Aa_star,S_G0,S_G1"
TIMESERIES_HEADER = "t,norm,purity,linear_entropy,vn_entropy,coherence_offdiag"
DT_DEFAULT = 5e-4


class Problems(list):
    def need(self, ok: bool, message: str) -> None:
        if not ok:
            self.append(message)


def _csv(data: bytes, header: str) -> np.ndarray:
    first, _, rest = data.partition(b"\n")
    if first.decode() != header:
        raise ValueError(f"CSV header {first.decode()!r}, expected {header!r}")
    return np.loadtxt(io.BytesIO(rest), delimiter=",", ndmin=2)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_run(out: Path, inputs: dict) -> tuple[Problems, dict[str, str]]:
    """Checks a `gravtwin run` directory; returns problems and output hashes."""
    p = Problems()
    manifest = json.loads((out / "manifest.json").read_text())
    p.need(manifest["status"] == "ok", f"manifest status {manifest['status']!r}: {manifest.get('diagnostic')}")
    on_disk = {f.name for f in out.iterdir()} - {"manifest.json"}
    p.need(on_disk == set(manifest["outputs"]), f"files {sorted(on_disk)} differ from manifest")
    files, hashes = {}, {}
    for name, record in manifest["outputs"].items():
        data = (out / name).read_bytes()
        files[name] = data
        hashes[name] = sha256(data)
        p.need(hashes[name] == record["sha256"] and len(data) == record["bytes"],
               f"{name}: sha256 or size differs from manifest")
    summary = json.loads(files["summary.json"])
    {
        "two-packet-decoherence": _decoherence,
        "perturbative-crosscheck": _crosscheck,
    }[inputs["scenario"]](p, summary, files, inputs)
    return p, hashes


def _invariants(p: Problems, s: dict) -> None:
    p.need(s["max_norm_drift"] < 1e-8, f"max_norm_drift {s['max_norm_drift']!r}")
    p.need(s["max_trace_error"] < 1e-8, f"max_trace_error {s['max_trace_error']!r}")
    p.need(s["max_hermiticity"] < 1e-10, f"max_hermiticity {s['max_hermiticity']!r}")
    p.need(s["max_exchange_asymmetry"] < 1e-10, f"max_exchange_asymmetry {s['max_exchange_asymmetry']!r}")
    p.need(s["min_eigenvalue"] > -1e-8, f"min_eigenvalue {s['min_eigenvalue']!r}")


def _decoherence(p: Problems, s: dict, files: dict, inputs: dict) -> None:
    g, steps, every = inputs["coupling.g"], inputs["evolution.steps"], inputs["evolution.record_every"]
    n_records = len(set(range(0, steps + 1, every)) | {steps})
    _invariants(p, s)
    p.need(s["couplings"] == [g], f"couplings {s['couplings']!r}, expected [{g!r}]")
    pc = s["per_coupling"][repr(g)]
    p.need(0.0 < pc["min_purity"] <= 1.0 + 1e-12, f"min purity {pc['min_purity']!r} outside (0, 1]")
    p.need(s["demo_purity_drop"] > 0.0, f"no purity drop at g={g!r}")
    p.need(pc["final_vn_entropy"] >= 0.0, f"negative entropy {pc['final_vn_entropy']!r}")

    ts = _csv(files[f"timeseries_g{g!r}.csv"], TIMESERIES_HEADER)
    p.need(ts.shape == (n_records, 6), f"timeseries shape {ts.shape}, expected ({n_records}, 6)")
    t, norm, purity, linear, vn, coh = ts.T
    p.need(t[0] == 0.0 and abs(t[-1] - steps * DT_DEFAULT) < 1e-12 and np.all(np.diff(t) > 0),
           "timeseries times are not 0 .. steps dt, increasing")
    p.need(np.all(np.abs(norm - 1.0) < 1e-8), "timeseries norm drifts beyond 1e-8")
    p.need(np.all((purity > 0) & (purity <= 1.0 + 1e-12)), "timeseries purity outside (0, 1]")
    p.need(np.all(np.abs(linear + purity - 1.0) < 1e-12), "linear entropy != 1 - purity")
    p.need(np.all(vn >= -1e-12) and np.all(coh >= 0), "negative entropy or coherence")
    p.need(float(purity.min()) == pc["min_purity"], "summary min_purity differs from the timeseries")

    dens = np.load(io.BytesIO(files["rho_diag_final.npy"]))
    dx = 32.0 / inputs["grid.n"]
    p.need(dens.shape == (inputs["grid.n"],), f"rho diagonal shape {dens.shape}")
    p.need(np.all(dens >= -1e-12) and abs(float(dens.sum()) * dx - 1.0) < 1e-8,
           "rho diagonal is not a probability density")


def _crosscheck(p: Problems, s: dict, files: dict, inputs: dict) -> None:
    g = inputs["coupling.g"]
    _invariants(p, s)
    p.need(s["couplings"] == [g, g / 2], f"couplings {s['couplings']!r}")
    res = s["residuals"]
    p.need(len(res) == 2 and all(r > 0 for r in res), f"residuals {res!r}")
    ratio = res[0] / res[1]
    p.need(3.5 <= ratio <= 4.5 and s["ratios_within_band"], f"halving ratio {ratio!r} outside [3.5, 4.5]")
    p.need(abs(s["halving_ratios"][0] - ratio) <= 1e-12 * ratio, "halving ratio inconsistent with residuals")
    p.need(abs(s["first_order_mass"] - 1.0) < 1e-8, f"first-order mass {s['first_order_mass']!r}")
    p.need(0.0 < s["action_estimate_over_hbar"] < 0.1, "coupling outside the first-order window")
    rows = _csv(files["residuals.csv"], "g,max_residual")
    p.need(rows.shape == (2, 2) and list(rows[:, 0]) == s["couplings"] and list(rows[:, 1]) == res,
           "residuals.csv differs from summary.json")


def coincident_action(mass: float, radius: float, L: float, v: float) -> float:
    """S0 = -T V(0) = (3/5) G m^2 T / R with T = 2 L / v."""
    return 0.6 * G_SI * mass * mass * (2.0 * L / v) / radius


def check_sweep(data: bytes, start: float, stop: float, points: int,
                mass: float, radius: float, L: float, v: float) -> Problems:
    """Checks a `gravtwin cow` sweep CSV against the closed-form physics."""
    p = Problems()
    rows = _csv(data, SWEEP_HEADER)
    if rows.shape != (points, 6):
        p.need(False, f"sweep shape {rows.shape}, expected ({points}, 6)")
        return p
    delta, prob, re, im, sg0, sg1 = rows.T
    s0 = coincident_action(mass, radius, L, v)
    s1 = float(sg1[0])
    p.need(abs(delta[0] - start) <= 1e-12 * stop and abs(delta[-1] - stop) <= 1e-12 * stop
           and np.all(np.diff(delta) > 0), "delta column is not START..STOP increasing")
    p.need(np.all(np.abs(prob - np.cos(0.5 * delta / HBAR_SI) ** 2) <= 1e-12), "prob_zeroth != cos^2(delta / 2 hbar)")
    p.need(np.all(re == 0.0), "Re(A a*) is not identically 0")
    p.need(np.all(np.abs(sg0 - s0) <= 1e-12 * s0), f"S_G0 differs from {s0!r}")
    p.need(np.all(sg1 == s1) and 0.0 < s1 < s0, f"S_G1 {s1!r} not constant in (0, S_G0)")
    big = delta / HBAR_SI
    expected = -(s0 / (4.0 * HBAR_SI)) * (
        0.5 + np.cos(big) + 0.5 * np.cos(2.0 * big) + (s1 / s0) * (1.0 + np.cos(big))
    )
    p.need(np.all(np.abs(im - expected) <= 1e-9 * s0 / HBAR_SI), "Im(A a*) differs from the closed form")
    return p
