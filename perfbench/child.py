"""One benchmark process in a fresh interpreter, started by run.py.

    child.py setup   WORKLOAD SEED WORKDIR RESULT
    child.py measure WORKLOAD SEED WORKDIR SECONDS TRACE RESULT

`setup` times `import gravtwin` plus parsing and validating the
workload's config or arguments.  `measure` runs operations one after
another (a closed loop with one client) until SECONDS have passed, checks
each operation's outputs, and writes the result as JSON to RESULT.  With
TRACE = 1 untraced and traced operations alternate, and grid workloads end
with one traced operation at GRAVTWIN_WORKERS = 2.

Only the public entry points `gravtwin.run` (through the `run` verb) and
`gravtwin.cli.main` are timed.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import inputs as bench

LAYERS = ("config", "core", "potential", "evolve", "reduction", "interferometer", "scenarios", "cli")
REDUCTION_CALLS = ("reduction.partial_trace", "reduction.decoherence_report", "reduction.structural_checks")


def _import_gravtwin(src: Path):
    import gravtwin
    import gravtwin.cli

    if not Path(gravtwin.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"imported gravtwin from {gravtwin.__file__}, not from {src}")
    return gravtwin


def setup(workload: str, seed: int, work: Path, src: Path) -> dict:
    geometries = bench.op_geometries(seed, 0)
    t0 = perf_counter()
    gravtwin = _import_gravtwin(src)
    if workload == "geometry-scan":
        for geo in geometries:
            gravtwin.InterferometerConfig(
                species=gravtwin.ParticleSpecies(mass=geo["mass"], radius=geo["radius"]),
                L=geo["L"], v=geo["v"], delta=0.0, units=gravtwin.UnitSystem.si(),
            )
    else:
        gravtwin.load_config(work / "config.cfg")
    return {"setup_s": perf_counter() - t0}


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError) as exc:  # numpy before 1.26 has no dict mode
        blas = f"unknown ({exc.__class__.__name__})"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "GRAVTWIN_WORKERS": os.environ.get("GRAVTWIN_WORKERS"),
        "machine": platform.machine(),
    }


def make_tracer(gravtwin):
    import numpy.linalg
    import scipy.fft

    from tracer import Tracer

    cli, scen, red = gravtwin.cli, gravtwin.scenarios, gravtwin.reduction
    steps = lambda args, kwargs: (kwargs.get("cfg") or args[3]).steps
    t = Tracer()
    t.add(cli, "main", "cli", "cli")
    t.add(cli, "load_config", "config.load", "config")
    t.add(gravtwin.config, "parse_config", "config.parse", "config")
    t.add(cli, "run", "scenarios.run", "scenarios")
    for owner in (cli, scen):
        t.add(owner, "csv_bytes", "scenarios.csv", "scenarios")
    t.add(cli, "correction", "interferometer.correction", "interferometer")
    for name in ("gaussian_wavepacket", "product_metastate", "gaussian_product_metastate"):
        t.add(scen, name, "core.state_prep", "core")
    t.add(gravtwin.core.MetaState, "__post_init__", "core.metastate", "core")
    t.add(scen, "evolve", "evolve", "evolve", steps)
    t.add(scen, "dyson_first_order", "dyson", "evolve", steps)
    t.add(scen, "first_order_position_density", "evolve.first_order_density", "evolve")
    t.add(scen, "partial_trace", "reduction.partial_trace", "reduction")
    t.add(red, "partial_trace", "reduction.partial_trace", "reduction")
    t.add(scen, "decoherence_report", "reduction.decoherence_report", "reduction")
    t.add(scen, "structural_checks", "reduction.structural_checks", "reduction")
    t.add(numpy.linalg, "eigvalsh", "reduction.eigvalsh", None)
    t.add(scipy.fft, "fft2", "fft", None)
    t.add(scipy.fft, "ifft2", "fft", None)
    t.add(gravtwin.potential.PairPotential, "evaluate_on_grid", "potential.grid_eval", "potential")
    t.add(gravtwin.potential.PairPotential, "action_integral_separating", "potential.quadrature", "potential")
    return t


class Workload:
    """Runs and checks the operations of one workload."""

    def __init__(self, name: str, seed: int, work: Path, gravtwin) -> None:
        self.name, self.seed, self.work, self.cli = name, seed, work, gravtwin.cli
        self.inputs = bench.make_inputs(name, seed)
        self.reference: dict[str, str] | None = None
        self.first_hash: str | None = None

    @property
    def grid(self) -> bool:
        return self.name in ("decoherence", "crosscheck")

    def argvs(self, k: int, out: Path) -> list[list[str]]:
        """The `gravtwin` command lines of operation k."""
        if self.name != "geometry-scan":
            return [["run", "--config", str(self.work / "config.cfg"), "--out", str(out)]]
        out.mkdir()
        return [bench.cow_argv(geo, str(out / f"g{j}.csv"))
                for j, geo in enumerate(bench.op_geometries(self.seed, k))]

    def check(self, k: int, out: Path) -> list[str]:
        import checks

        if self.name != "geometry-scan":
            problems, hashes = checks.check_run(out, self.inputs)
            if self.reference is None:
                self.reference = hashes
            elif hashes != self.reference:
                problems.append("outputs differ from the first operation's (sha256)")
            return problems
        problems = []
        for j, geo in enumerate(bench.op_geometries(self.seed, k)):
            data = (out / f"g{j}.csv").read_bytes()
            if k == 0 and j == 0:
                self.first_hash = checks.sha256(data)
            problems += [f"geometry {k * bench.GEOMETRIES_PER_OP + j}: {msg}" for msg in checks.check_sweep(
                data, 0.0, geo["delta_stop"], bench.GEOMETRY_POINTS, geo["mass"], geo["radius"], geo["L"], geo["v"])]
        return problems

    def repeat_check(self) -> list[str]:
        """geometry-scan draws new geometries per operation; repeat the first call."""
        import checks

        if self.name != "geometry-scan" or self.first_hash is None:
            return []
        path = self.work / "repeat.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            rc = self.cli.main(bench.cow_argv(bench.op_geometries(self.seed, 0)[0], str(path)))
        if rc != 0 or checks.sha256(path.read_bytes()) != self.first_hash:
            return ["repeating geometry 0 gave different bytes (sha256)"]
        return []

    def op(self, k: int, tracer=None, workers: int = 1) -> dict:
        out = self.work / f"op{k}"
        record = {"k": k, "traced": tracer is not None, "workers": workers, "wall_s": None}
        captured = io.StringIO()
        try:
            argvs = self.argvs(k, out)
            os.environ["GRAVTWIN_WORKERS"] = str(workers)
            if tracer is not None:
                tracer.install()
            try:
                with contextlib.redirect_stdout(captured):
                    t0 = perf_counter()
                    codes = [self.cli.main(argv) for argv in argvs]  # the timed part
                    record["wall_s"] = perf_counter() - t0
            finally:
                if tracer is not None:
                    tracer.restore()
                os.environ["GRAVTWIN_WORKERS"] = "1"
            problems = [f"exit code {c}: {captured.getvalue()[-300:]}" for c in codes if c != 0]
            record["output_bytes"] = sum(f.stat().st_size for f in out.rglob("*") if f.is_file())
            if not problems:
                problems = self.check(k, out)
        except Exception:
            problems = [traceback.format_exc(limit=4)]
        record["problems"] = problems[:5]
        record["ok"] = not problems
        shutil.rmtree(out, ignore_errors=True)
        return record


def layer_metrics(t, ops: int, traced: list[float], untraced: list[float], t2, out_bytes: float) -> dict:
    """Per-layer metrics per traced operation; means per call where named so."""
    def mean(total, count):
        return total / count if count else 0.0

    ev, dy = t.work["evolve"], t.work["dyson"]
    records = t.calls["reduction.structural_checks"]
    fft_ms = 1e3 * mean(t.inclusive["fft"], t.calls["fft"] / 2)
    fft_ms_w2 = 1e3 * mean(t2.inclusive["fft"], t2.calls["fft"] / 2) if t2 else 0.0
    record_s = sum(t.inclusive_under[("evolve", name)] for name in REDUCTION_CALLS)
    m = {
        "evolve.steps": (ev / ops, "count"),
        "evolve.self_s": (t.own_self["evolve"] / ops, "s"),
        "evolve.step_ms": (1e3 * mean(t.own_self["evolve"], ev), "ms"),
        "fft.calls": (t.calls["fft"] / ops, "count"),
        "fft.ms": (fft_ms, "ms"),
        "fft.per_step": (mean(t.calls_under[("evolve", "fft")] / 2, ev), "count"),
        "dyson.steps": (dy / ops, "count"),
        "dyson.self_s": (t.own_self["dyson"] / ops, "s"),
        "dyson.step_ms": (1e3 * mean(t.own_self["dyson"], dy), "ms"),
        "dyson.fft_per_step": (mean(t.calls_under[("dyson", "fft")] / 2, dy), "count"),
        "evolve.step_ms.w2": (1e3 * mean(t2.own_self["evolve"], t2.work["evolve"]) if t2 else 0.0, "ms"),
        "dyson.step_ms.w2": (1e3 * mean(t2.own_self["dyson"], t2.work["dyson"]) if t2 else 0.0, "ms"),
        "fft.ms.w2": (fft_ms_w2, "ms"),
        "fft.scaling_eff.w2": (mean(fft_ms, 2.0 * fft_ms_w2), "ratio"),
        "reduction.records": (records / ops, "count"),
        "reduction.record_ms": (1e3 * mean(record_s, records), "ms"),
        "reduction.eigvalsh.per_record": (mean(t.calls["reduction.eigvalsh"], records), "count"),
        "core.metastate.count": (t.calls["core.metastate"] / ops, "count"),
        "core.state_prep_s": (t.inclusive["core.state_prep"] / ops, "s"),
        "potential.grid_eval.ms": (1e3 * mean(t.inclusive["potential.grid_eval"], t.calls["potential.grid_eval"]), "ms"),
        "potential.quadrature.calls": (t.calls["potential.quadrature"] / ops, "count"),
        "potential.quadrature.ms": (1e3 * mean(t.inclusive["potential.quadrature"], t.calls["potential.quadrature"]), "ms"),
        "scenarios.csv.s": (t.inclusive["scenarios.csv"] / ops, "s"),
        "scenarios.output_bytes": (out_bytes, "B"),
        "scenarios.run_self_s": (t.own_self["scenarios.run"] / ops, "s"),
        "cli.self_s": (t.own_self["cli"] / ops, "s"),
        "config.parse_s": (t.layer_self["config"] / ops, "s"),
    }
    for name in REDUCTION_CALLS + ("reduction.eigvalsh",):
        m[f"{name}.ms"] = (1e3 * mean(t.inclusive[name], t.calls[name]), "ms")
    name = "interferometer.correction"
    m[f"{name}.calls"] = (t.calls[name] / ops, "count")
    # own time: the first call per geometry also runs the quadrature
    m[f"{name}.us"] = (1e6 * mean(t.own_self[name], t.calls[name]), "us")
    for layer in LAYERS:
        m[f"{layer}.share"] = (t.layer_self[layer] / sum(traced), "ratio")
    m["trace.wall_s"] = (statistics.median(traced), "s")
    m["trace.overhead"] = (statistics.median(traced) / statistics.median(untraced) - 1.0, "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def measure(workload: str, seed: int, work: Path, src: Path, seconds: float, trace: bool) -> dict:
    gravtwin = _import_gravtwin(src)
    wl = Workload(workload, seed, work, gravtwin)
    tracer = make_tracer(gravtwin) if trace else None
    ops: list[dict] = []
    deadline = perf_counter() + seconds
    min_ops = 4 if trace else 2
    while len(ops) < min_ops or perf_counter() < deadline or (trace and len(ops) % 2):
        k = len(ops)
        ops.append(wl.op(k, tracer if trace and k % 2 else None))
    tracer_w2 = None
    if trace and wl.grid:
        tracer_w2 = make_tracer(gravtwin)
        ops.append(wl.op(len(ops), tracer_w2, workers=2))
    repeat = wl.repeat_check()
    if repeat:
        ops[0]["problems"] += repeat
        ops[0]["ok"] = False

    result = {
        "ops": ops,
        "inputs": wl.inputs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    }
    if workload == "geometry-scan":
        result["inputs"]["geometries_used"] = bench.GEOMETRIES_PER_OP * len(ops)
        result["inputs"]["first_geometry"] = bench.op_geometries(seed, 0)[0]
    if trace:
        timed = [o for o in ops if o["wall_s"] is not None]
        w1 = [o for o in timed if o["traced"] and o["workers"] == 1]
        result["layers"] = layer_metrics(
            tracer.totals(), len(w1),
            [o["wall_s"] for o in w1],
            [o["wall_s"] for o in timed if not o["traced"]],
            tracer_w2.totals() if tracer_w2 else None,
            statistics.fmean(o.get("output_bytes", 0) for o in w1),
        )
    return result


def main(argv: list[str]) -> int:
    mode, workload, seed, work, *extra, result_path = argv
    src = Path.cwd() / "src"
    if mode == "setup":
        result = setup(workload, int(seed), Path(work), src)
    else:
        result = measure(workload, int(seed), Path(work), src, float(extra[0]), extra[1] == "1")
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
