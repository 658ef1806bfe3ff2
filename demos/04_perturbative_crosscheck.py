"""First-order channel against the full evolution.

The single-insertion (Dyson) propagation splits the state into the
coupling-free channel psi0 and the first-order correction psi1.  The
density psi0^2 + 2 Re(psi0 psi1*) should track the full nonperturbative
run up to a residual that is second order: halve g, quarter the gap.
"""
import numpy as np

from gravtwin import (
    EvolutionConfig,
    ExternalPotential,
    MetaState,
    PairPotential,
    ParticleSpecies,
    UnitSystem,
    dyson_first_order,
    evolve,
    first_order_position_density,
    make_grid,
    separated_product_state,
)

grid = make_grid(-16.0, 16.0, 256)
species = ParticleSpecies(mass=1.0, radius=1.0)
state = separated_product_state(grid, (0.0,), 0.7, 0.0)  # stepped as X and r
cfg = EvolutionConfig(dt=5e-4, steps=400)

couplings = (1.0 / 3.0, 1.0 / 6.0, 1.0 / 12.0)

# psi0 does not depend on g and psi1 is linear in it: one first-order pass
# at the largest coupling serves the whole scan, psi1 rescaled by 2^-j.
pair0 = PairPotential(species, UnitSystem.dimensionless(couplings[0]))
psi0, psi1 = dyson_first_order(state, ExternalPotential.null(), pair0, cfg)

print("   g       max |full - first order|    mass of first-order density")
residuals = []
for j, g in enumerate(couplings):
    pair = PairPotential(species, UnitSystem.dimensionless(g))
    full = evolve(state, ExternalPotential.null(), pair, cfg).final_state
    full_density = np.sum(np.abs(full.amplitudes) ** 2, axis=1) * grid.dx

    psi1_g = MetaState(grid=grid, amplitudes=0.5**j * psi1.amplitudes, time=psi1.time)
    approx = first_order_position_density(psi0, psi1_g)

    resid = float(np.max(np.abs(full_density - approx)))
    mass = float(np.sum(approx) * grid.dx)
    residuals.append(resid)
    print(f"  {g:.4f}    {resid:.6e}              {mass:.12f}")

print("\nresidual ratios under halving (expect ~4):")
for a, b in zip(residuals, residuals[1:]):
    print(f"  {a / b:.3f}")

t_total = cfg.dt * cfg.steps
print(f"\ncoupling action scale |V(0)| T / hbar at g = 1/3: {0.6 / 3.0 * t_total:.4f}")
print("small against 1, as a first-order treatment requires")
