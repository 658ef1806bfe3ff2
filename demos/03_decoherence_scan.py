"""Turn the coupling on: a two-packet superposition loses purity.

Both copies start in the same (L + R)/sqrt(2) superposition.  The pair
interaction entangles physical and hidden coordinates, so tracing the
hidden one out leaves a mixed physical state.  Purity decays faster at
stronger coupling; the early-time rate scales like g^2.
"""
from gravtwin import (
    EvolutionConfig,
    ExternalPotential,
    PairPotential,
    ParticleSpecies,
    UnitSystem,
    decoherence_report,
    evolve,
    make_grid,
    partial_trace,
    separated_product_state,
)

grid = make_grid(-16.0, 16.0, 256)
species = ParticleSpecies(mass=1.0, radius=1.0)
width, sep = 0.7, 8.0

# Both copies in the normalized L + R superposition, stepped as centre of
# mass and separation; records see the gathered pair amplitude.
state = separated_product_state(grid, (-sep / 2, sep / 2), width, 0.0)

cfg = EvolutionConfig(dt=5e-4, steps=600, record_every=100)
d_cut = 4 * width


def observer(s):
    rep = decoherence_report(partial_trace(s), d_cut)
    return {"purity": rep.purity, "coh": rep.coherence_offdiag}


print(f"packet separation {sep} R, width {width}, {cfg.steps} steps of {cfg.dt}")
print("\n   g      final purity    purity drop     early rate")
rates = []
for g in (0.125, 0.25, 0.5, 1.0):
    units = UnitSystem.dimensionless(g=g)
    pair = PairPotential(species, units)
    rec = evolve(state, ExternalPotential.null(), pair, cfg, observer=observer)
    purity = [o["purity"] for o in rec.reduced_observables]
    # rate from the first recorded span
    rate = (purity[0] - purity[1]) / (rec.times[1] - rec.times[0])
    rates.append(rate)
    print(f"  {g:5.3f}   {purity[-1]:.10f}   {1 - min(purity):.3e}   {rate:.3e}")

print("\nrate ratios between successive doublings (expect ~4, the g^2 law):")
for a, b in zip(rates, rates[1:]):
    print(f"  {b / a:.3f}")
