"""The worker-process body: one PE running a PM and an LM.

Each worker runs the owned steps of the six-step day
(:mod:`repro.core.day`) over real shared memory and moves the records
between them (see :mod:`repro.smp.backend` for the driver side):

1. **person phase** — :func:`~repro.core.day.person_phase` over the
   owned persons and visit rows (disjoint index sets of the shared
   state arrays, so no synchronisation needed), then stream surviving
   row indices to the worker owning each visit's location through the
   visit ring grid;
2. the visit phase closes via the shared completion detector (workers
   drain their inboxes while waiting);
3. **location phase** — sort the received rows ascending and run
   :func:`~repro.core.day.location_phase` over them.  Because the
   kernels reduce hazards per (location, person) with stable sorts, an
   ascending row subset covering whole locations produces the *same
   bits* as the sequential whole-population pass restricted to those
   locations — delivery order never leaks into the epidemic;
4. the phase's infect records (3 words each, already in wire layout)
   stream to the owner of each infected person; the infect detector
   closes the phase, which by the latent-period argument also means
   every reader of ``health_state`` is done;
5. **apply phase** — :func:`~repro.core.day.apply_phase` on the
   received persons (owned, so writes stay disjoint);
6. the day report (counts, events, wall-clock phase spans) goes back
   to the driver over the worker's pipe, which doubles as the day
   barrier — struct-packed bytes (:mod:`repro.smp.protocol`), never a
   pickle, so the barrier cost stays flat in the event count.

Routing is zero-copy on the send side: surviving visit rows (and
infect-event records) are destination-sorted once and streamed to the
mailboxes as contiguous slices of that one array
(:func:`~repro.smp.ring.route_records`).

Keyed RNG makes all of this order-independent: every draw a worker
takes is keyed by (phase, day, person/location), so the epidemic is
bit-identical to :class:`~repro.core.simulator.SequentialSimulator`
no matter how messages interleave.
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
from repro.smp.layout import INFECT_RECORD, SharedState
from repro.smp.ring import Mailbox, route_records

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
    burst_bytes: int = 2048
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
    det_v = shared.visit_detector(rank)
    det_i = shared.infect_detector(rank)
    owned_persons = ctx.plan.persons[rank]
    owned_rows = ctx.plan.visit_rows[rank]
    loc_owner = ctx.plan.location_owner
    person_owner = ctx.plan.person_owner
    n_workers = len(ctx.plan.persons)

    recv_rows: list[np.ndarray] = []
    recv_events: list[np.ndarray] = []

    def drain_visits() -> int:
        got = 0
        for _src, words in visit_mb.receive():
            det_v.consume(int(words.size))
            recv_rows.append(words)
            got += int(words.size)
        return got

    def drain_infects() -> int:
        got = 0
        for _src, words in infect_mb.receive():
            det_i.consume(int(words.size))
            recv_events.append(words)
            got += int(words.size)
        return got

    visit_mb = Mailbox(
        shared.visit_rings, rank, burst_bytes=ctx.burst_bytes,
        on_backpressure=drain_visits, on_sent=det_v.produce,
    )
    infect_mb = Mailbox(
        shared.infect_rings, rank, burst_bytes=ctx.burst_bytes,
        record=INFECT_RECORD,
        on_backpressure=drain_infects, on_sent=det_i.produce,
    )

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

        # -- step 1: person phase (PTTS + visit filtering + send) --------
        t0 = time.perf_counter()
        _maybe_fault(ctx, rank, day, "person")
        transitions, kept = day_steps.person_phase(
            state, sc, day_ctx, owned_persons, owned_rows
        )
        dests = loc_owner[sc.graph.visit_location[kept]]
        _routed, parts = route_records(kept, dests, n_workers)
        for dst, part in enumerate(parts):
            visit_mb.send(dst, part)
        visit_mb.flush()
        det_v.producer_done()
        # -- step 2: visit-phase completion -------------------------------
        det_v.wait_closed(drain_visits, timeout=ctx.timeout, should_abort=check_abort)
        t1 = time.perf_counter()

        # -- step 3: location phase over owned locations' rows ------------
        _maybe_fault(ctx, rank, day, "location")
        if recv_rows:
            rows = np.sort(np.concatenate(recv_rows))
            recv_rows.clear()
        else:
            rows = np.empty(0, dtype=np.int64)
        phase = day_steps.location_phase(
            state, sc, day, rows, kernel=ctx.kernel, collect_stats=ctx.collect_stats
        )
        ev = phase.records  # already one wire record per row
        _ev_routed, ev_parts = route_records(ev, person_owner[ev[:, 0]], n_workers)
        for dst, part in enumerate(ev_parts):
            infect_mb.send(dst, part)
        infect_mb.flush()
        det_i.producer_done()
        # -- step 4: infect-phase completion ------------------------------
        det_i.wait_closed(drain_infects, timeout=ctx.timeout, should_abort=check_abort)
        t2 = time.perf_counter()

        # -- step 5: apply infect messages to owned persons ----------------
        _maybe_fault(ctx, rank, day, "apply")
        if recv_events:
            events = np.concatenate(recv_events).reshape(-1, INFECT_RECORD)
            recv_events.clear()
        else:
            events = np.empty((0, INFECT_RECORD), dtype=np.int64)
        infected = day_steps.apply_phase(state, sc, day, events[:, 0])
        t3 = time.perf_counter()

        # -- step 6: report (the driver's reduction) -----------------------
        # Struct-packed bytes + raw int64 event records: the barrier
        # payload never pickles a tuple list or a numpy array.
        stats_events = stats_inter = None
        if ctx.collect_stats:
            stats_events = _counter_pairs(phase.events)
            stats_inter = _counter_pairs(phase.interactions)
        conn.send_bytes(
            protocol.encode_report(
                protocol.DayReport(
                    day=day,
                    transitions=transitions,
                    visits_made=int(kept.size),
                    infected=infected,
                    backpressure=int(
                        visit_mb.backpressure_events
                        + infect_mb.backpressure_events
                    ),
                    clocks=(t0, t1, t2, t3),
                    events=events,
                    stats_events=stats_events,
                    stats_interactions=stats_inter,
                )
            )
        )
