"""Tabulate the pair potential and check its anchor points.

The interaction between the two copies is half the potential of two
overlapping uniform spheres: quintic inside r < 2R, Kepler tail outside.
This runs the potential-scan scenario with 2001 samples on [0, 10R] and
copies its table to pair_potential.csv in the working directory:

    python demos/01_pair_potential.py
"""
import json
import shutil
import tempfile
from pathlib import Path

from gravtwin import PairPotential, parse_config, run

cfg = parse_config("scenario = potential-scan\npotential.samples = 2001\n")
with tempfile.TemporaryDirectory() as tmp:
    run(cfg, tmp)
    s = json.loads((Path(tmp) / "summary.json").read_text())
    shutil.copyfile(Path(tmp) / "potential.csv", "pair_potential.csv")

print("anchor values (units of g m^2 / R):")
print(f"  V(0)   = {s['v_at_zero']:+.6f}   (depth at full overlap, rel err {s['golden_v0_rel_err']:.1e})")
print(f"  V(2R)  = {s['v_at_contact']:+.6f}   (contact point, rel err {s['golden_contact_rel_err']:.1e})")
print(f"\nbranch continuity at 2R: relative gap = {s['continuity_rel_gap']:.3e}")
print(f"monotone non-decreasing over [0, 10R]: {s['monotone_nondecreasing']}")
print(f"r * V(r) at r = 10 R: {s['r_v_product_at_r_max']:+.6f}  (tail -1/2)")
print("\nwrote pair_potential.csv (2001 samples); plot r vs V_G to see both branches")

# the scan's species and units also give the action constants used downstream
pair = PairPotential(cfg.species, cfg.units)
act = pair.action_integral_separating(v=1.0, T=1.0)
print(f"\nseparating action S1(v=1, T=1): closed form {act.closed_form:.12f}")
print(f"                                quadrature  {act.quadrature:.12f}")
print(f"coincident action S0(T=1):      {pair.action_coincident(T=1.0):.12f}")

if not s["monotone_nondecreasing"]:
    raise SystemExit("FAIL: the pair potential is not monotone non-decreasing")
