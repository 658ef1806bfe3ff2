"""Command-line face: scenario runs plus two direct-computation verbs.

Exit codes: 0 success, 1 validation failure, 2 numerical abort, 3 I/O
failure.  Argument errors and sizes too large to allocate count as
validation.  Each numeric flag is read as the scenario config key it
stands for, by the reader of config files, and its errors start with the
flag.
The only environment knob is GRAVTWIN_WORKERS (transform worker
threads); it never changes results, only speed.
"""
from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from ._version import __version__
from .config import ConfigError, load_config, read
from .core import NEWTON_G_SI, ValidationError
from .evolve import NumericalAbort
# Unused here, but perfbench/child.py wraps correction under this name.
from .interferometer import correction  # noqa: F401
from .scenarios import _POTENTIAL_COLUMNS, _cow_sweep, _potential_table, csv_bytes, run

# The flag that stands for each config key the verbs read.
_POTENTIAL_FLAGS = {"species.mass": "--mass", "species.radius": "--radius",
                    "potential.r_max": "--r-max", "potential.samples": "--samples"}
_SWEEP_KEYS = ("cow.delta_start", "cow.delta_stop", "cow.delta_points")
_COW_FLAGS = {"cow.mass": "--mass", "cow.radius": "--radius", "cow.L": "--L", "cow.v": "--v",
              **dict.fromkeys(_SWEEP_KEYS, "--delta-sweep")}


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; route through the
    # validation path instead so exit codes stay as documented.
    def error(self, message: str):
        raise ConfigError(message)


@functools.cache
def _build_parser() -> _Parser:
    # Built on first use, not at import, and shared by later calls:
    # parse_args keeps no state on the parser between calls.
    parser = _Parser(prog="gravtwin", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="execute a scenario from a config file")
    p_run.add_argument("--config", required=True, help="key = value scenario file")
    p_run.add_argument("--out", required=True, help="output directory (fresh per run)")

    p_pot = sub.add_parser("potential", help="tabulate the pair potential (SI units)")
    p_pot.add_argument("--mass", required=True, help="sphere mass, kg")
    p_pot.add_argument("--radius", required=True, help="sphere radius, m")
    p_pot.add_argument("--r-max", required=True, help="largest separation, m")
    p_pot.add_argument("--samples")
    p_pot.add_argument("--out", required=True, help="CSV path")

    p_cow = sub.add_parser("cow", help="two-arm fringe sweep with the pair correction")
    p_cow.add_argument(
        "--delta-sweep", required=True, metavar="START:STOP:N",
        help="phase-difference action sweep, J s; a negative START needs the --delta-sweep=START:STOP:N form",
    )
    p_cow.add_argument("--preset", choices=["neutron"], help="built-in geometry")
    p_cow.add_argument("--mass", help="particle mass, kg (custom geometry)")
    p_cow.add_argument("--radius", help="particle radius, m")
    p_cow.add_argument("--L", help="arm scale, m")
    p_cow.add_argument("--v", help="beam speed, m/s")
    p_cow.add_argument("--out", required=True, help="CSV path")

    sub.add_parser("version", help="print version and exit")
    return parser


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    manifest = run(cfg, args.out)
    print(f"{manifest.scenario}: {manifest.status}; outputs in {args.out}")
    return 0


def _cmd_potential(args) -> int:
    # V reads only G, m and R, so the scan at coupling G_SI tabulates the SI pair potential.
    raw = {"species.mass": args.mass, "species.radius": args.radius, "coupling.g": repr(NEWTON_G_SI),
           "potential.r_max": args.r_max, "potential.samples": args.samples}
    r, vals = _potential_table(read("potential-scan", raw, _POTENTIAL_FLAGS))
    Path(args.out).write_bytes(csv_bytes(_POTENTIAL_COLUMNS, (r, vals)))
    print(f"wrote {len(r)} samples to {args.out}")
    return 0


def _cmd_cow(args) -> int:
    geometry = {"cow.mass": args.mass, "cow.radius": args.radius, "cow.L": args.L, "cow.v": args.v}
    if args.preset is not None:
        if any(v is not None for v in geometry.values()):
            raise ConfigError("--preset conflicts with --mass/--radius/--L/--v")
        raw = {"cow.preset": args.preset}
    else:
        if any(v is None for v in geometry.values()):
            raise ConfigError("custom geometry needs all of --mass --radius --L --v")
        raw = {"cow.preset": "custom", **geometry}
    parts = args.delta_sweep.split(":")
    if len(parts) != 3:
        raise ConfigError(f"--delta-sweep: expects START:STOP:N, got {args.delta_sweep!r}")
    raw.update(zip(_SWEEP_KEYS, parts))
    deltas, sweep, _ = _cow_sweep(read("cow-sweep", raw, _COW_FLAGS))
    Path(args.out).write_bytes(sweep)
    print(f"wrote {len(deltas)} sweep points to {args.out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.verb == "version":
            print(f"gravtwin {__version__}")
            return 0
        if args.verb == "run":
            return _cmd_run(args)
        if args.verb == "potential":
            return _cmd_potential(args)
        if args.verb == "cow":
            return _cmd_cow(args)
        raise AssertionError(args.verb)
    except NumericalAbort as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, ValidationError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"invalid input: too large to allocate: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
