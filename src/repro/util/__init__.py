"""Shared utilities: deterministic RNG streams, histograms, timing.

These helpers underpin every stochastic component in the reproduction.
Determinism matters here more than in a typical simulation codebase:
the sequential reference simulator and the simulated-parallel runtime
must produce *identical* epidemic trajectories (see DESIGN.md §5), which
requires that randomness be keyed by stable identifiers (person id,
simulation day) rather than by draw order.
"""

from repro.util.rng import RngFactory, derive_seed, spawn_generator
from repro.util.histogram import log_binned_histogram, LogHistogram
from repro.util.timing import CostAccumulator

__all__ = [
    "RngFactory",
    "derive_seed",
    "spawn_generator",
    "log_binned_histogram",
    "LogHistogram",
    "CostAccumulator",
]
