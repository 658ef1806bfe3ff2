"""Coupling off: the pair state is one history and spreads like a free packet.

With G = 0 both copies evolve independently, the partial trace stays
pure, and the position variance follows s^2(t) = s0^2 (1 + (t/2 s0^2)^2)
(hbar = m = 1).  This is the smallest self-contained check that the
doubled phase space adds nothing when the coupling is absent.
"""
import numpy as np

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

units = UnitSystem.dimensionless(g=0.0)
species = ParticleSpecies(mass=1.0, radius=1.0)
grid = make_grid(-15.0, 15.0, 256)
width = 0.5

state = separated_product_state(grid, (0.0,), width, 0.0)  # stepped as X and r
pair = PairPotential(species, units)

t_double = np.sqrt(3.0) * 2.0 * width**2  # packet width doubles here
cfg = EvolutionConfig(dt=t_double / 400, steps=400, record_every=80)


def var_of(state):
    pr = np.sum(np.abs(state.amplitudes) ** 2, axis=1) * grid.dx * grid.dx
    mean = np.sum(grid.x * pr)
    return float(np.sum((grid.x - mean) ** 2 * pr))


rec = evolve(state, ExternalPotential.null(), pair, cfg,
             observer=lambda s: {"var": var_of(s)})

print("      t     sigma^2(num)   sigma^2(exact)    rel err")
for t, obs in zip(rec.times, rec.reduced_observables):
    exact = width**2 * (1.0 + (t / (2.0 * width**2)) ** 2)
    rel = abs(obs["var"] - exact) / exact
    print(f"  {t:7.4f}   {obs['var']:.8f}     {exact:.8f}   {rel:.2e}")

rep = decoherence_report(partial_trace(rec.final_state), d_cut=4 * width)
print(f"\nfinal purity:          {rep.purity:.12f}")
print(f"final linear entropy:  {rep.linear_entropy:.3e}")
print(f"norm drift over run:   {abs(rec.norms[-1] - 1.0):.3e}")
print("\nno coupling, no decoherence: the hidden copy is pure bookkeeping here")
