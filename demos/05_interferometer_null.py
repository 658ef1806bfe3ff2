"""Two-arm sweep for a neutron: the first-order term never reaches the fringe.

The product A a* of the unperturbed exit amplitude and the first-order
correction comes out purely imaginary for every phase setting, so the
exit probability keeps its ideal cos^2 shape at this order.  The
cow-sweep scenario evaluates the closed form over a 500-point sweep of
two fringe periods and the brute-force enumeration over the four arm
pairs side by side.
"""
import json
import tempfile
from pathlib import Path

from gravtwin import parse_config, run

cfg = parse_config("scenario = cow-sweep\ncow.delta_points = 500\n")
with tempfile.TemporaryDirectory() as tmp:
    run(cfg, tmp)
    s = json.loads((Path(tmp) / "summary.json").read_text())
    rows = (Path(tmp) / "cow.csv").read_text().splitlines()[1:]

print(f"geometry: L = {cfg.values['cow.L']} m, v = {cfg.values['cow.v']} m/s")
print(f"S_G0 = {s['S_G0']:.6e} J s   (S_G0 / hbar = {s['S_G0_over_hbar']:.3e})")
print(f"S_G1 = {s['S_G1']:.6e} J s")

print("\n  delta/hbar   prob_zeroth    Re(A a*)      Im(A a*)")
for row in rows[::100] + rows[-1:]:
    delta, prob, re, im = (float(v) for v in row.split(",")[:4])
    print(f"  {delta / cfg.two_arm.units.hbar:9.4f}   {prob:.8f}   {re:+.3e}   {im:+.6e}")

print(f"\n{len(rows)}-point sweep: max |Re(A a*)| = {s['max_abs_re_AaStar']:.1e}, "
      f"max |prob correction| = {s['max_abs_prob_correction']:.1e}")
print(f"closed form vs enumeration: max |A a*| = {s['max_abs_AaStar']:.6e}, "
      f"largest |A a*_closed - A a*_enum| = {s['enum_max_abs_AaStar_err']:.1e}")

if not (s["max_abs_re_AaStar"] == 0 and s["max_abs_prob_correction"] == 0):
    raise SystemExit("FAIL: the first-order term reached the fringe probability")
