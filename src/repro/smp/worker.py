"""The worker-process body: one PE running a PM and an LM.

Each worker runs the owned steps of the six-step day
(:mod:`repro.core.day`) over real shared memory and moves the records
between them (see :mod:`repro.smp.backend` for the driver side):

1. **person phase** — :func:`~repro.core.day.person_phase` over the
   owned persons and visit rows (disjoint index sets of the shared
   arrays, so no synchronisation needed), writing the owned rows'
   entries of the shared removed-visit mask; no visit row travels;
2. the person → location barrier (epoch ``2·day + 1`` of the
   :class:`~repro.smp.completion.CounterBarrier`);
3. **location phase** — :func:`~repro.core.day.location_phase` over the
   owned-location mask and the removed-visit mask, which over a
   disjoint location cover gives the sequential pass's *same bits*;
4. the phase's infect records (3 words each) go into the worker's own
   record segment (:class:`~repro.smp.layout.RecordSegments`), then the
   location → apply barrier (epoch ``2·day + 2``), which by the
   latent-period argument also means every reader of ``health_state``
   is done;
5. **apply phase** — every segment is read in rank order, and
   :func:`~repro.core.day.apply_phase` runs on the records' persons
   this worker owns (so writes stay disjoint);
6. the day report (counts, wall-clock phase spans) goes back to the
   driver over the worker's pipe, which doubles as the day barrier —
   struct-packed bytes (:mod:`repro.smp.protocol`), never a pickle,
   and no event payload: the driver reads the segments itself.

Keyed RNG makes all of this order-independent: every draw a worker
takes is keyed by (phase, day, person/location), so the epidemic is
bit-identical to :class:`~repro.core.simulator.SequentialSimulator`
whichever worker computes what.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core import day as day_steps
from repro.core.day import OwnershipPlan
from repro.smp import protocol
from repro.smp.completion import CounterBarrier
from repro.smp.layout import SharedState

__all__ = ["WorkerContext", "worker_main", "WorkerAbort", "FAULT_EXIT_CODE"]

#: Exit code of a fault-injected crash (tests assert on it).
FAULT_EXIT_CODE = 17


class WorkerAbort(EOFError):
    """Raised inside a worker when the driver set the abort flag: like
    EOF on the pipe, the driver is gone and the worker exits quietly."""


@dataclass
class WorkerContext:
    """Everything the workers share; built pre-fork and inherited."""

    scenario: Any
    shared: SharedState
    plan: OwnershipPlan
    kernel: str | None = None
    collect_stats: bool = False
    timeout: float | None = 120.0
    #: test-only fault injection: {"rank": r, "day": d, "phase": p} makes
    #: worker r die with FAULT_EXIT_CODE at the start of phase p of day d
    fault: dict | None = field(default=None, repr=False)


def _counter_pairs(counter) -> tuple[np.ndarray, np.ndarray]:
    """A Counter as parallel ``(keys, counts)`` int64 arrays for the wire."""
    keys = np.fromiter(counter.keys(), dtype=np.int64, count=len(counter))
    counts = np.fromiter(counter.values(), dtype=np.int64, count=len(counter))
    return keys, counts


def _maybe_fault(ctx: WorkerContext, rank: int, day: int, phase: str) -> None:
    f = ctx.fault
    if f and f["rank"] == rank and f["day"] == day and f["phase"] == phase:
        os._exit(FAULT_EXIT_CODE)


def worker_main(rank: int, conn, ctx: WorkerContext) -> None:
    """Process entry point under :class:`repro.workers.Workers`, which
    reports an exception to the driver as an error frame."""
    sc = ctx.scenario
    shared = ctx.shared
    state = shared.state
    barrier = CounterBarrier(shared.epochs, rank)
    segments = shared.records
    owned_persons = ctx.plan.persons[rank]
    owned_rows = ctx.plan.visit_rows[rank]
    owned_locations = ctx.plan.location_owner == rank
    person_owner = ctx.plan.person_owner
    removed = shared.removed
    wrote_removed = False  # whether our rows' entries hold a True

    def check_abort() -> None:
        if shared.abort[0]:
            raise WorkerAbort

    while True:
        buf = conn.recv_bytes()  # the day barrier: blocks until the driver
        op, day, prevalence, cumulative_attack = protocol.decode_command(buf)
        if op == protocol.OP_STOP:
            break
        if len(buf) > protocol.COMMAND_NBYTES:
            # The driver appended central component state (quarantine
            # rosters etc.) that our forked snapshot doesn't have.
            sc.interventions.load_wire_state(buf[protocol.COMMAND_NBYTES:])
        # Keyed streams are pure functions of (seed, key), so the context
        # rebuilt here draws exactly what the driver's would.
        day_ctx = day_steps.day_context(state, sc, day, prevalence, cumulative_attack)

        # -- step 1: person phase (PTTS + visit filtering) ---------------
        t0 = time.perf_counter()
        _maybe_fault(ctx, rank, day, "person")
        transitions, keep = day_steps.person_phase(
            state, sc, day_ctx, owned_persons, owned_rows
        )
        if keep is not None or wrote_removed:
            removed[owned_rows] = False if keep is None else ~keep
            wrote_removed = keep is not None
        # -- step 2: the person -> location barrier ------------------------
        barrier.arrive(2 * day + 1)
        barrier.wait(2 * day + 1, timeout=ctx.timeout, should_abort=check_abort)
        t1 = time.perf_counter()

        # -- step 3: location phase over owned locations -------------------
        _maybe_fault(ctx, rank, day, "location")
        phase = day_steps.location_phase(  # None: no worker removed a visit
            state, sc, day, owned_locations, removed if removed.any() else None,
            kernel=ctx.kernel, collect_stats=ctx.collect_stats,
        )
        # -- step 4: publish the records, then the location -> apply barrier
        segments.write(rank, phase.records)
        barrier.arrive(2 * day + 2)
        barrier.wait(2 * day + 2, timeout=ctx.timeout, should_abort=check_abort)
        t2 = time.perf_counter()

        # -- step 5: apply the records addressed to owned persons ----------
        _maybe_fault(ctx, rank, day, "apply")
        persons = segments.gather()[:, 0]
        infected = day_steps.apply_phase(
            state, sc, day, persons[person_owner[persons] == rank]
        )
        t3 = time.perf_counter()

        # -- step 6: report (the driver's reduction) -----------------------
        stats_events = stats_inter = None
        if ctx.collect_stats:
            stats_events = _counter_pairs(phase.events)
            stats_inter = _counter_pairs(phase.interactions)
        conn.send_bytes(
            protocol.encode_report(
                protocol.DayReport(
                    day=day,
                    transitions=transitions,
                    visits_made=owned_rows.size if keep is None else int(np.count_nonzero(keep)),
                    infected=infected,
                    clocks=(t0, t1, t2, t3),
                    stats_events=stats_events,
                    stats_interactions=stats_inter,
                )
            )
        )
