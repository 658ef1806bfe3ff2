"""gravtwin: a numerical laboratory for a system gravitationally coupled to its hidden twin.

The package evolves the joint amplitude of a physical particle and an
unobservable replica, traces out the replica to get the physical density
matrix, and quantifies the intrinsic decoherence that coupling induces.
An analytic two-arm interferometer branch computes the first-order
fringe correction and its exact cancellation.
"""
from __future__ import annotations

from ._version import __version__

from .core import (
    HBAR_SI,
    NEWTON_G_SI,
    Grid1D,
    MetaState,
    ParticleSpecies,
    SeparatedState,
    UnitSystem,
    ValidationError,
    gaussian_product_metastate,
    gaussian_wavepacket,
    product_metastate,
    separated_product_state,
)
from .potential import PairPotential, SeparatingAction
from .evolve import (
    CFLViolation,
    EvolutionConfig,
    EvolutionRecord,
    NumericalAbort,
    dyson_first_order,
    evolve,
    first_order_position_density,
)
from .reduction import (
    DecoherenceReport,
    ReducedDensityMatrix,
    decoherence_report,
    partial_trace,
    position_probability,
    structural_checks,
)
from .interferometer import (
    CorrectionResult,
    HarmonicCoefficientDiff,
    InterferometerConfig,
    PathPair,
    PerturbativeRegimeWarning,
    correction,
    cow_neutron_preset,
    enumerate_path_pairs,
    harmonic_coefficient_diff,
    pair_enumeration_oracle,
    zeroth_order_probability,
)
from .config import ConfigError, ScenarioConfig, load_config, parse_config
from .scenarios import RunManifest, run

__all__ = [
    "ConfigError",
    "RunManifest",
    "ScenarioConfig",
    "load_config",
    "parse_config",
    "run",
    "HBAR_SI",
    "NEWTON_G_SI",
    "CFLViolation",
    "CorrectionResult",
    "DecoherenceReport",
    "EvolutionConfig",
    "EvolutionRecord",
    "Grid1D",
    "HarmonicCoefficientDiff",
    "InterferometerConfig",
    "PathPair",
    "PerturbativeRegimeWarning",
    "MetaState",
    "NumericalAbort",
    "PairPotential",
    "ParticleSpecies",
    "ReducedDensityMatrix",
    "SeparatedState",
    "SeparatingAction",
    "UnitSystem",
    "ValidationError",
    "correction",
    "cow_neutron_preset",
    "decoherence_report",
    "dyson_first_order",
    "enumerate_path_pairs",
    "evolve",
    "first_order_position_density",
    "gaussian_product_metastate",
    "gaussian_wavepacket",
    "harmonic_coefficient_diff",
    "pair_enumeration_oracle",
    "partial_trace",
    "position_probability",
    "product_metastate",
    "separated_product_state",
    "structural_checks",
    "zeroth_order_probability",
]
