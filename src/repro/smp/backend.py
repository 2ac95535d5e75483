"""Driver for the shared-memory multi-process backend (paper §IV-A).

:class:`SmpSimulator` runs the six-step day (:mod:`repro.core.day`) on
real OS processes: it lays the population state out in shared memory
(:mod:`repro.smp.layout`), forks ``n_workers`` PEs running
:func:`~repro.smp.worker.worker_main`, and then orchestrates days —
the central steps (:func:`~repro.core.day.open_day` /
:func:`~repro.core.day.close_day`: index-case seeding, intervention
treatment updates, prevalence bookkeeping) stay on the driver, in
exactly the sequential order, while the person / location / apply
phases execute in parallel on the workers.  No message crosses a PE
boundary inside the day: each worker writes its infect records into
its own shared record segment, one counter barrier per phase boundary
publishes them, and every worker reads every segment — the paper's SMP
mode, where PEs of a node pass pointers, not copies.

The result is **bit-identical** to
:class:`~repro.core.simulator.SequentialSimulator` (same infection
events, same epi-curve, same final arrays): every stochastic draw is
keyed by (phase, day, person/location ids), so neither the partition
nor the worker count can influence the epidemic.  The run record is
the sequential one — ``SmpResult.result`` is a
:class:`~repro.core.simulator.SimulationResult` with the day's record
segments concatenated in rank order (under the default
:func:`~repro.smp.layout.block_partition`, the sequential order
itself) and copies of the final arrays — so the differential
oracle's smp cells (:func:`repro.validate.oracle.run_smp_matrix`) diff
it with the same :func:`~repro.validate.oracle.diff_runs` as every
other backend.

Observability: workers stamp each phase with ``time.perf_counter()``
(CLOCK_MONOTONIC — one system-wide epoch on Linux, comparable across
processes); the driver normalises them to the run origin and feeds
them to an active :mod:`repro.observe` observer as per-PE tracks, so
the existing Chrome-trace / utilization exporters render *measured*
timelines of real PEs.

The day barrier itself is cheap by construction: commands and reports
cross the pipes as fixed-layout struct-packed bytes
(:mod:`repro.smp.protocol` — no pickling, no event payload).  The
processes, the park and the failure report are :mod:`repro.workers`:
a worker's death or error frame raises :class:`SmpWorkerError`, and the
driver then raises the shared abort flag (peers spinning in a
barrier wait exit cleanly instead of hanging) and unlinks the
shared-memory arena on every exit path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro import observe
from repro.core import day as day_steps
from repro.core.day import OwnershipPlan, PhaseTimes
from repro.core.metrics import EpiCurve, state_histogram
from repro.core.scenario import Scenario
from repro.core.simulator import SimulationResult
from repro.partition.quality import BipartitePartition
from repro.smp import protocol
from repro.smp.layout import block_partition, build_shared_state
from repro.smp.worker import WorkerContext, worker_main
from repro.workers import WorkerError, Workers

__all__ = ["SmpSimulator", "SmpResult", "SmpWorkerError"]


class SmpWorkerError(WorkerError):
    """A worker process died or reported an exception; the run aborted."""

    DIED = "worker {rank} died on day {task} (exit code {exitcode}) before reporting"
    FAILED = "worker {rank} failed on day {task}: {exc}\n{tb}"


@dataclass
class SmpResult:
    """Full output of one SMP run."""

    result: SimulationResult
    n_workers: int
    wall_seconds: float
    #: measured wall-clock phase boundaries, seconds from the run origin
    phase_times: list[PhaseTimes] = field(default_factory=list)
    #: 0 by construction (no ring left to fill); BENCHMARK.json's
    #: ``smp.backpressure_events`` still reads it
    backpressure_events: int = 0
    #: total bytes crossing the day-barrier pipes (both directions) —
    #: the regression tests hold this to the struct-layout budget
    wire_bytes: int = 0


class SmpSimulator:
    """Shared-memory parallel run of one scenario.

    Parameters
    ----------
    scenario:
        The simulation specification (same object the sequential
        simulator consumes).
    n_workers:
        PE processes to fork.  ``1`` is valid (useful as a
        protocol-overhead baseline).
    partition:
        Person/location ownership; any
        :class:`~repro.partition.BipartitePartition` with
        ``k == n_workers``.  Defaults to the contiguous
        :func:`~repro.smp.layout.block_partition`.
    kernel:
        Exposure kernel forwarded to
        :func:`~repro.core.exposure.compute_infections`.  The
        ``"compiled"`` kernel is pre-built in the driver so the forked
        workers inherit the loaded library.
    timeout:
        Per-phase barrier deadline inside workers (a hang breaker;
        generous because CI machines can be one-core).
    """

    def __init__(
        self,
        scenario: Scenario,
        n_workers: int,
        partition: BipartitePartition | None = None,
        kernel: str | None = None,
        collect_location_stats: bool = False,
        timeout: float | None = 120.0,
        _fault: dict | None = None,
    ):
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        g = scenario.graph
        if partition is None:
            partition = block_partition(g.n_persons, g.n_locations, n_workers)
        if partition.k != n_workers:
            raise ValueError(
                f"partition has k={partition.k} but n_workers={n_workers}"
            )
        # Build/load the C library before forking so every worker
        # inherits the mapping instead of racing the first compile —
        # under every kernel, since the keyed draws use it too.
        from repro.core import ckernel

        if not ckernel.available() and kernel == "compiled":
            raise RuntimeError(
                f"compiled kernel unavailable: {ckernel.build_error()}"
            )
        # Likewise the block index every worker's location phase walks:
        # built once here, inherited copy-on-write, not once per worker.
        g.block_visit_index()
        self.scenario = scenario
        self.n_workers = n_workers
        partition.validate_against(g)
        self.plan = OwnershipPlan.build(
            g, partition.person_part, partition.location_part, n_workers
        )
        self.kernel = kernel
        self.collect_location_stats = collect_location_stats
        self.timeout = timeout
        self._fault = _fault
        # Clear component trigger/array state before the workers fork a
        # snapshot of the scenario, so one Scenario is reusable.
        scenario.interventions.reset()

    @classmethod
    def from_spec(cls, spec, graph=None, partition=None) -> "SmpSimulator":
        """Build from a :class:`repro.spec.RunSpec`.

        ``graph``/``partition`` short-circuit the population and
        partition builds (pass cached artifacts); otherwise both are
        constructed from the spec's population/partition sub-specs.
        """
        if graph is None:
            graph = spec.population.build()
        if partition is None:
            graph, partition = spec.resolved_partition().build(graph)
        rt = spec.runtime
        return cls(
            spec.build_scenario(graph),
            n_workers=rt.workers,
            partition=partition,
            kernel=rt.kernel,
        )

    # ------------------------------------------------------------------
    def run(self) -> SmpResult:
        with observe.span(
            "smp.run", workers=self.n_workers, days=self.scenario.n_days
        ):
            return self._run()

    def _run(self) -> SmpResult:
        sc = self.scenario
        n = self.n_workers
        shared = build_shared_state(sc, self.plan.location_owner, n)
        context = WorkerContext(
            scenario=sc, shared=shared, plan=self.plan, kernel=self.kernel,
            collect_stats=self.collect_location_stats,
            timeout=self.timeout, fault=self._fault,
        )
        workers = None
        t_origin = time.perf_counter()
        try:
            # Fork inherits the shared mappings and the context
            # directly — nothing is pickled, nothing re-attached.
            workers = Workers(n, worker_main, (context,), stop=protocol.encode_stop(),
                              error=SmpWorkerError)
            curve = EpiCurve()
            result = SimulationResult(curve=curve, final_histogram={})
            out = SmpResult(result=result, n_workers=n, wall_seconds=0.0)
            state = shared.state

            for day in range(sc.n_days):
                day_start = time.perf_counter() - t_origin
                ctx, seeded = day_steps.open_day(state, sc, day)
                # Components whose visit filters depend on central
                # state broadcast it with the kick; forked workers hold
                # stale pre-run snapshots otherwise.  Empty for the
                # built-in interventions (exact 32-byte budget).
                kick = protocol.encode_day(
                    day, ctx.prevalence, ctx.cumulative_attack,
                    sc.interventions.wire_state(),
                )
                workers.broadcast(kick, day)
                out.wire_bytes += len(kick) * n

                reports = self._collect_reports(workers, day, out)
                self._ingest_day(
                    out, day_start, t_origin, reports, seeded, shared, ctx
                )

            # copies: the arena is unlinked when the run returns
            result.final_health_state = state.health_state.copy()
            result.final_days_remaining = state.days_remaining.copy()
            result.final_histogram = state_histogram(result.final_health_state, sc.disease)
            out.wall_seconds = time.perf_counter() - t_origin
            return out
        finally:
            shared.abort[0] = 1
            if workers is not None:
                workers.close()
            shared.arena.close()

    # ------------------------------------------------------------------
    def _collect_reports(self, workers: Workers, day, out: SmpResult) -> list[protocol.DayReport]:
        """The day barrier: one ``day_done`` from every worker."""
        pending = set(range(self.n_workers))
        reports: list[protocol.DayReport | None] = [None] * self.n_workers
        while pending:
            for rank, buf in workers.recv(pending):
                r = protocol.decode_report(buf)
                assert r.day == day
                out.wire_bytes += len(buf)
                reports[rank] = r
                pending.discard(rank)
        return reports

    def _ingest_day(
        self, out: SmpResult, day_start, t_origin, reports, seeded, shared, ctx
    ) -> None:
        day = ctx.day
        # The workers have all reported and are parked on their pipes,
        # so close_day's central post_apply edit of the shared arrays and
        # the read of their record segments are race-free.
        day_result = day_steps.close_day(
            shared.state, self.scenario, ctx, seeded=seeded,
            visits_made=sum(r.visits_made for r in reports),
            transitions=sum(r.transitions for r in reports),
            infected=sum(r.infected for r in reports),
        )
        out.result.days.append(day_result)
        out.result.curve.record_day(day_result.new_infections, day_result.prevalence)
        out.result.infection_log[day] = shared.records.gather()
        if self.collect_location_stats:
            for r in reports:
                for pairs, counter in (
                    (r.stats_events, out.result.location_events),
                    (r.stats_interactions, out.result.location_interactions),
                ):
                    if pairs is not None:
                        keys, counts = pairs
                        counter.update(dict(zip(keys.tolist(), counts.tolist())))

        obs = observe.active()
        boundaries = {"person_phase": [], "location_phase": [], "apply_phase": []}
        for rank, r in enumerate(reports):
            t0, t1, t2, t3 = r.clocks
            for a, b, name in (
                (t0, t1, "person_phase"),
                (t1, t2, "location_phase"),
                (t2, t3, "apply_phase"),
            ):
                start, end = a - t_origin, b - t_origin
                boundaries[name].append(end)
                if obs is not None:
                    obs.add_virtual_span(rank, start, end, f"pe.{name}")
        out.phase_times.append(
            PhaseTimes(
                day=day,
                start=day_start,
                visits_done=max(boundaries["person_phase"]),
                locations_done=max(boundaries["location_phase"]),
                day_done=max(boundaries["apply_phase"]),
            )
        )
