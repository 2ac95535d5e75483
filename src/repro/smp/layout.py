"""Per-partition shared-memory layout of the simulation state.

The SMP backend lays the population state out once, before forking:

* **person state** — one :class:`~repro.core.day.EpidemicState` whose
  four arrays (``health_state`` / ``days_remaining`` / ``treatment`` /
  ``ever_infected``) are shared segments indexed by global person id.
  Worker ``w`` writes only the entries of persons it owns (a disjoint
  block under the default contiguous layout), so concurrent updates
  never touch the same element;
* **removed visits** — the day's removed-visit mask, one bool per
  visit row, written by the rows' owners and read by every location
  phase (visit rows do not travel);
* **traffic** — one ring-buffer grid (:class:`~repro.smp.ring.
  RingGrid`) for infect events (3 words: person, location, minute);
* **control** — two ``(3, n)`` completion-counter blocks (visit phase,
  closing on zero records, and infect phase,
  :class:`~repro.smp.completion.ShmPhaseDetector`) and a one-word
  abort flag the driver raises on teardown.

Ownership is the :class:`~repro.core.day.OwnershipPlan` the simulated
runtime uses too: persons → PersonManager ranks, locations →
LocationManager ranks, except here both managers of rank ``w`` live in
the same OS process (worker ``w`` *is* a PE running one PM and one LM —
the paper's SMP mode with one chare of each array per PE).  Any
:class:`~repro.partition.BipartitePartition` with ``k == n_workers``
can be used; :func:`block_partition` is the default
contiguous layout (persons and locations in equal slabs), which keeps
most visit traffic local for synthetic populations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.day import EpidemicState
from repro.partition.quality import BipartitePartition
from repro.smp.completion import ShmPhaseDetector
from repro.smp.ring import RingGrid
from repro.smp.shm import SharedArena

__all__ = [
    "INFECT_RECORD",
    "block_partition",
    "SharedState",
    "build_shared_state",
]

#: Words per infect-event record: (person, location, minute).
INFECT_RECORD = 3


def block_partition(n_persons: int, n_locations: int, k: int) -> BipartitePartition:
    """Contiguous equal slabs of persons and locations over ``k`` workers.

    >>> p = block_partition(10, 4, 2)
    >>> p.person_part.tolist()
    [0, 0, 0, 0, 0, 1, 1, 1, 1, 1]
    >>> p.location_part.tolist()
    [0, 0, 1, 1]
    """
    return BipartitePartition(
        person_part=(np.arange(n_persons, dtype=np.int64) * k) // max(1, n_persons),
        location_part=(np.arange(n_locations, dtype=np.int64) * k) // max(1, n_locations),
        k=k,
        method="block",
    )


@dataclass
class SharedState:
    """All shared-memory arrays of one run (created pre-fork, inherited)."""

    arena: SharedArena
    #: the person state, its arrays backed by shared segments
    state: EpidemicState
    #: the day's removed-visit mask, one entry per visit row
    removed: np.ndarray
    infect_rings: RingGrid
    visit_counters: np.ndarray
    infect_counters: np.ndarray
    #: one word; nonzero once the driver aborts the run
    abort: np.ndarray

    def visit_detector(self, rank: int) -> ShmPhaseDetector:
        return ShmPhaseDetector(self.visit_counters, rank)

    def infect_detector(self, rank: int) -> ShmPhaseDetector:
        return ShmPhaseDetector(self.infect_counters, rank)


def build_shared_state(
    scenario, n_workers: int, ring_capacity: int = 8192
) -> SharedState:
    """Allocate the run's shared arrays inside one :class:`SharedArena`.

    The person state starts from :meth:`EpidemicState.initial`, exactly
    as :class:`~repro.core.simulator.SequentialSimulator` starts.
    """
    arena = SharedArena()
    grid = RingGrid.shape(n_workers, ring_capacity)
    try:
        initial = EpidemicState.initial(scenario)
        return SharedState(
            arena=arena,
            state=EpidemicState(
                health_state=arena.share("health", initial.health_state),
                days_remaining=arena.share("remaining", initial.days_remaining),
                treatment=arena.share("treatment", initial.treatment),
                ever_infected=arena.share("ever", initial.ever_infected),
            ),
            removed=arena.alloc("removed", (scenario.graph.n_visits,), dtype=bool),
            infect_rings=RingGrid(arena.alloc("irings", grid), ring_capacity),
            visit_counters=arena.alloc("vcount", (3, n_workers)),
            infect_counters=arena.alloc("icount", (3, n_workers)),
            abort=arena.alloc("abort", (1,)),
        )
    except Exception:
        arena.close()
        raise
