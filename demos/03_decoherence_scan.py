"""Turn the coupling on: a two-packet superposition loses purity.

Both copies start in the same (L + R)/sqrt(2) superposition.  The pair
interaction entangles physical and hidden coordinates, so tracing the
hidden one out leaves a mixed physical state.  Purity decays faster at
stronger coupling; the early-time rate scales like g^2.  The
two-packet-decoherence scenario runs the scan, one coupling per run.
"""
import json
import tempfile
from pathlib import Path

from gravtwin import parse_config, run

CONFIG = """
scenario = two-packet-decoherence
grid.n = 256
scan.couplings = 0.125, 0.25, 0.5, 1.0
evolution.steps = 600
evolution.record_every = 100
"""

cfg = parse_config(CONFIG)
with tempfile.TemporaryDirectory() as tmp:
    run(cfg, tmp)
    s = json.loads((Path(tmp) / "summary.json").read_text())

v = cfg.values
print(f"packet separation {v['packet.separation']} R, width {v['packet.width']}, "
      f"{cfg.evolution.steps} steps of {cfg.evolution.dt}")
print("\n   g      final purity    purity drop     early rate")
for g in s["couplings"]:
    p = s["per_coupling"][repr(g)]
    print(f"  {g:5.3f}   {p['final_purity']:.10f}   {1 - p['min_purity']:.3e}   {p['initial_decay_rate']:.3e}")

rates = s["decay_rates"]
ratios = [b / a for a, b in zip(rates, rates[1:])]
print("\nrate ratios between successive doublings (expect ~4, the g^2 law):")
for r in ratios:
    print(f"  {r:.3f}")

if not (s["decay_rates_nondecreasing"] and all(3.5 <= r <= 4.5 for r in ratios)):
    raise SystemExit("FAIL: the early decay rate does not follow the g^2 law")
