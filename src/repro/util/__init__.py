"""Shared utilities: deterministic RNG streams, histograms, timing.

These helpers underpin every stochastic component in the reproduction.
Determinism matters here more than in a typical simulation codebase:
the sequential reference simulator and the simulated-parallel runtime
must produce *identical* epidemic trajectories (see DESIGN.md §5), which
requires that randomness be keyed by stable identifiers (person id,
simulation day) rather than by draw order.
"""

import numpy as np

from repro.util.rng import RngFactory, derive_seed, spawn_generator
from repro.util.histogram import log_binned_histogram, LogHistogram
from repro.util.timing import CostAccumulator

__all__ = [
    "distinct",
    "RngFactory",
    "derive_seed",
    "spawn_generator",
    "log_binned_histogram",
    "LogHistogram",
    "CostAccumulator",
]


def distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values of an integer array, ascending: ``np.unique``'s
    result by a sort and a compare of neighbours.  A plain ``np.unique``
    asks ``np.ma.is_masked`` first, and so imports ``numpy.ma`` (~15 ms)
    into a run that needs none of it.

    >>> distinct(np.array([3, 1, 3, 2])).tolist()
    [1, 2, 3]
    """
    values = np.sort(values, axis=None)
    first = np.ones(values.size, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return values[first]
