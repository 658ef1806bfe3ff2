"""gravtwin benchmark: three workloads, end-to-end metrics and per-layer traces.

Run from the root of a source checkout (the package is imported from
./src, nothing is installed):

    python3 perfbench/run.py --workload decoherence --seed 1 --seconds 30 --trace 0

Workloads (sizes in inputs.py, why each exists in README.md):
    decoherence    two-packet-decoherence, n = 512, record-dense
    crosscheck     perturbative-crosscheck, n = 512, Dyson-dominated
    geometry-scan  many `gravtwin cow` calls, one fresh geometry each

Each run makes its inputs from --seed, times set-up in fresh interpreters
(trace 0 only), then runs operations in one fresh interpreter for
--seconds, checks every operation's outputs and prints the metrics.  The
last line of stdout is the JSON result; with --trace 0 it holds the
end-to-end metrics, with --trace 1 the per-layer metrics.  Environment,
inputs and failures are printed above it and saved to
.perfbench-work/result-<workload>.json.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs as bench  # noqa: E402

SETUP_PROCESSES = 4  # timed, after one discarded warm-up process
DEADLINE_S = 170.0   # the whole run, set-up included, ends before this


def _child(args: list[str], env: dict, result: Path, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), *args, str(result)]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, timeout=max(timeout, 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark child {args[0]} exited with code {proc.returncode}")
    return json.loads(result.read_text())


def _git_sha(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unknown ({exc.__class__.__name__})"
    return out.stdout.strip() or "unknown"


def _summary(values: list[float]) -> str:
    return (f"median {statistics.median(values):.6g} (n={len(values)}, "
            f"min {min(values):.6g}, max {max(values):.6g})")


def run(args, root: Path, work: Path) -> int:
    start = monotonic()
    env = dict(os.environ, PYTHONPATH=str(root / "src"), GRAVTWIN_WORKERS="1",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    inputs = bench.make_inputs(args.workload, args.seed)
    if args.workload != "geometry-scan":
        (work / "config.cfg").write_text(bench.config_text(inputs))
    common = [args.workload, str(args.seed), str(work)]

    setups = []
    if not args.trace:
        for i in range(SETUP_PROCESSES + 1):
            r = _child(["setup", *common], env, work / f"setup{i}.json", DEADLINE_S - (monotonic() - start))
            if i:
                setups.append(r["setup_s"])
    res = _child(["measure", *common, str(args.seconds), str(args.trace)], env,
                 work / "measure.json", DEADLINE_S - (monotonic() - start))

    ops = res["ops"]
    failed = [o for o in ops if not o["ok"]]
    walls = [o["wall_s"] for o in ops if o["ok"] and not o["traced"]]
    walls = walls or [o["wall_s"] for o in ops if o["wall_s"] is not None and not o["traced"]]
    if not walls:
        print("perfbench: no operation completed", file=sys.stderr)
        for o in failed:
            print(f"  op {o['k']}: {o['problems']}", file=sys.stderr)
        return 1

    env_record = {"git_sha": _git_sha(root), **res["env"]}
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"(closed loop, one client, one fresh interpreter)")
    print("environment: " + json.dumps(env_record, sort_keys=True))
    print("inputs: " + json.dumps(res["inputs"], sort_keys=True))
    for o in failed:
        print(f"FAILED op {o['k']} (traced={o['traced']}, workers={o['workers']}): {o['problems']}")

    print(f"  wall_s       [s]     {_summary(walls)}")
    if setups:
        print(f"  setup_s      [s]     {_summary(setups)}")
    print(f"  peak_rss_mb  [MB]    {res['peak_rss_mb']:.6g}")
    print(f"  fail_ratio   [ratio] {len(failed) / len(ops):.6g} ({len(failed)} of {len(ops)} operations)")
    if args.trace:
        for name, m in res["layers"].items():
            print(f"  {name:<34} [{m['unit']}] {m['value']:.6g}")
        metrics = res["layers"]
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "ok_ratio": {"value": 1.0 - len(failed) / len(ops), "unit": "ratio"},
        }
    result = {"correct": not failed, "attempted": len(ops), "failed": len(failed), "metrics": metrics}
    (work.parent / f"result-{args.workload}.json").write_text(json.dumps(
        {**result, "seed": args.seed, "environment": env_record, "inputs": res["inputs"],
         "setup_samples": setups, "ops": ops}, indent=1))
    print(json.dumps(result))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=bench.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "gravtwin" / "__init__.py").is_file():
        print("perfbench: no ./src/gravtwin here; run from the root of a gravtwin checkout", file=sys.stderr)
        return 2
    work = root / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return run(args, root, work)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
