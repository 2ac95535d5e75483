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
* **records** — one block of per-worker record segments
  (:class:`RecordSegments`): worker ``w`` writes its location phase's
  infect records (3 words: person, location, minute) into its own
  segment, sized for the visit rows at its locations, and every worker
  reads every segment;
* **control** — one epoch word per worker (the
  :class:`~repro.smp.completion.CounterBarrier` both phase boundaries
  cross) and a one-word abort flag the driver raises on teardown.

Ownership is the :class:`~repro.core.day.OwnershipPlan` the simulated
runtime uses too: persons → PersonManager ranks, locations →
LocationManager ranks, except here both managers of rank ``w`` live in
the same OS process (worker ``w`` *is* a PE running one PM and one LM —
the paper's SMP mode with one chare of each array per PE).  Any
:class:`~repro.partition.BipartitePartition` with ``k == n_workers``
can be used; :func:`block_partition` is the default
contiguous layout (persons and locations in equal slabs), under which
the rank-order concatenation of the segments is the sequential
simulator's record order (its kernels emit in ascending location).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.day import EpidemicState
from repro.partition.quality import BipartitePartition
from repro.smp.shm import SharedArena

__all__ = [
    "INFECT_RECORD",
    "block_partition",
    "RecordSegments",
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


class RecordSegments:
    """Per-worker infect-record segments in one ``(rows, 3)`` block.

    Worker ``w`` owns rows ``offsets[w]:offsets[w + 1]`` and is their
    only writer; ``counts[w]`` is how many it filled today.  Its
    capacity is the visit rows at its locations: the kernels emit at
    most one record per distinct (location, person) slot, so a day's
    records never exceed it, and :meth:`write` refuses a count that
    would, before it stores a word past the segment.

    >>> seg = RecordSegments(np.zeros((3, 3), np.int64), np.array([0, 2, 3]),
    ...                      np.zeros(2, np.int64))
    >>> seg.write(1, np.array([[7, 1, 60]]))
    >>> seg.gather().tolist()
    [[7, 1, 60]]
    """

    def __init__(self, rows: np.ndarray, offsets: np.ndarray, counts: np.ndarray):
        self.rows = rows
        self.offsets = offsets
        self.counts = counts

    def write(self, rank: int, records: np.ndarray) -> None:
        lo, hi = int(self.offsets[rank]), int(self.offsets[rank + 1])
        n = len(records)
        if n > hi - lo:
            raise OverflowError(
                f"worker {rank}: {n} infect records exceed its segment of {hi - lo}"
            )
        self.rows[lo:lo + n] = records
        self.counts[rank] = n

    def gather(self) -> np.ndarray:
        """Every segment's records, in rank order (a copy)."""
        return np.concatenate(
            [self.rows[lo:lo + n] for lo, n in zip(self.offsets, self.counts)]
        )


@dataclass
class SharedState:
    """All shared-memory arrays of one run (created pre-fork, inherited)."""

    arena: SharedArena
    #: the person state, its arrays backed by shared segments
    state: EpidemicState
    #: the day's removed-visit mask, one entry per visit row
    removed: np.ndarray
    records: RecordSegments
    #: one epoch word per worker, see
    #: :class:`~repro.smp.completion.CounterBarrier`
    epochs: np.ndarray
    #: one word; nonzero once the driver aborts the run
    abort: np.ndarray


def build_shared_state(scenario, location_owner: np.ndarray, n_workers: int) -> SharedState:
    """Allocate the run's shared arrays inside one :class:`SharedArena`.

    The person state starts from :meth:`EpidemicState.initial`, exactly
    as :class:`~repro.core.simulator.SequentialSimulator` starts; worker
    ``w``'s record segment holds one record per visit row at the
    locations ``location_owner`` gives it.
    """
    graph = scenario.graph
    capacity = np.bincount(location_owner[graph.visit_location], minlength=n_workers)
    offsets = np.concatenate(([0], np.cumsum(capacity)))
    arena = SharedArena()
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
            removed=arena.alloc("removed", (graph.n_visits,), dtype=bool),
            records=RecordSegments(
                arena.alloc("records", (int(offsets[-1]), INFECT_RECORD)),
                offsets, arena.alloc("counts", (n_workers,)),
            ),
            epochs=arena.alloc("epochs", (n_workers,)),
            abort=arena.alloc("abort", (1,)),
        )
    except Exception:
        arena.close()
        raise
