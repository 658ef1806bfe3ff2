"""Coupling off: the pair state is one history and spreads like a free packet.

With G = 0 both copies evolve independently, the partial trace stays
pure, and the position variance follows s^2(t) = s0^2 (1 + (t/2 s0^2)^2)
(hbar = m = 1).  This is the smallest self-contained check that the
doubled phase space adds nothing when the coupling is absent: the
free-check scenario runs a width-0.5 packet for one doubling time.
"""
import json
import tempfile
from pathlib import Path

from gravtwin import parse_config, run

CONFIG = """
scenario = free-check
grid.x_min = -15
grid.x_max = 15
grid.n = 256
packet.width = 0.5
evolution.dt = 0.0021650635094610966  # the doubling time / 400
evolution.steps = 400
evolution.record_every = 80
"""

with tempfile.TemporaryDirectory() as tmp:
    run(parse_config(CONFIG), tmp)
    s = json.loads((Path(tmp) / "summary.json").read_text())
    rows = (Path(tmp) / "timeseries.csv").read_text().splitlines()

print("      t     norm              purity")
for row in rows[1:]:
    t, norm, purity = (float(v) for v in row.split(",")[:3])
    print(f"  {t:7.4f}   {norm:.15f}   {purity:.15f}")

print(f"\nran to t = {s['final_time']:.4f}; the packet width doubles at {s['doubling_time']:.4f}")
print(f"worst sigma^2 rel err against s0^2 (1 + (t/2 s0^2)^2): {s['spreading_sigma2_max_rel_err']:.2e}")
print(f"final density max rel err against the exact packet:    {s['density_final_max_rel_err']:.2e}")
print(f"worst |purity - 1|:  {s['max_purity_deviation']:.3e}")
print(f"worst norm drift:    {s['max_norm_drift']:.3e}")
print("\nno coupling, no decoherence: the hidden copy is pure bookkeeping here")

if not (s["max_purity_deviation"] < 1e-8
        and s["spreading_sigma2_max_rel_err"] < 1e-4
        and s["density_final_max_rel_err"] < 1e-4):
    raise SystemExit("FAIL: the free packet left its analytic spreading or lost purity")
