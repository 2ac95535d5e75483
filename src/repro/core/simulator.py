"""Sequential reference simulator — the six-step day over everything.

This is the semantic ground truth: the chare-parallel runtime in
:mod:`repro.core.parallel` and the process-parallel one in
:mod:`repro.smp` must produce exactly the same epidemic trajectory
(asserted by integration tests).  The day itself lives in
:mod:`repro.core.day`; this loop runs its owned steps — person phase,
location phase, apply phase (paper §II-B steps 1, 3, 5) — over every
person and visit, between the central :func:`~repro.core.day.open_day`
and :func:`~repro.core.day.close_day` (step 6).  "Every visit" travels
as ``None``, not as a row list: with no intervention active the
location phase is O(visits in an infectious person's blocks).

:meth:`SequentialSimulator.step_day` is the one day loop body and
records each day into the simulator's :class:`SimulationResult`;
:meth:`SequentialSimulator.run` steps up to a day (the horizon by
default), so a run restored mid-way by
:func:`repro.core.checkpoint.load_checkpoint` finishes through the same
loop and reports the whole run's curve.

The latent-period argument (an infection today can never make someone
infectious *today*) is what allows the whole day to be processed in
one parallel sweep without violating causality — and equally what lets
us run steps 1/3/5 as whole-population vectorised passes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro import observe
from repro.core import day as day_steps
from repro.core.day import DayResult, EpidemicState
from repro.core.exposure import LocationPhaseResult
from repro.core.metrics import EpiCurve, state_histogram
from repro.core.scenario import Scenario

__all__ = ["DayResult", "SimulationResult", "SequentialSimulator"]


@dataclass
class SimulationResult:
    """Full-run output: the epidemic curve plus final state — the one
    run record every backend reports and :func:`repro.validate.oracle.
    diff_runs` compares."""

    curve: EpiCurve
    final_histogram: dict[str, int]
    days: list[DayResult] = field(default_factory=list)
    #: summed per-location DES statistics (when stats collection is on)
    location_events: Counter = field(default_factory=Counter)
    location_interactions: Counter = field(default_factory=Counter)
    #: per day, the applied infect records: one int64 ``(n, 3)`` array
    #: of ``(person, location, minute)`` rows (emission order on seq)
    infection_log: dict[int, np.ndarray] = field(default_factory=dict)
    #: per-person PTTS state index and dwell timer after the last day
    final_health_state: np.ndarray | None = None
    final_days_remaining: np.ndarray | None = None

    @property
    def total_infections(self) -> int:
        return self.curve.cumulative_infections[-1] if self.curve.n_days else 0


class SequentialSimulator:
    """Runs a :class:`~repro.core.scenario.Scenario` to completion.

    Parameters
    ----------
    scenario:
        The simulation specification.
    collect_location_stats:
        Accumulate per-location event/interaction counts across the run
        (needed when fitting the load model).  ``events`` counts every
        visit row, so this brings back one pass over all visits a day.
    kernel:
        Exposure-kernel selection passed through to
        :func:`~repro.core.exposure.compute_infections` (one of
        :data:`~repro.core.exposure.KERNELS`; None = ``"compiled"`` where
        the C library loads, else ``"flat"``).  The kernels are
        bit-for-bit equivalent — this is a performance knob and the lever
        for flat-vs-compiled differential testing.

    :attr:`result` is the run record, filled one day at a time by
    :meth:`step_day`; ``final_histogram`` is set when :meth:`run`
    returns.
    """

    def __init__(
        self,
        scenario: Scenario,
        collect_location_stats: bool = False,
        kernel: str | None = None,
    ):
        self.scenario = scenario
        self.collect_location_stats = collect_location_stats
        self.kernel = kernel
        self.state = EpidemicState.initial(scenario)
        # the same ndarrays, mutated in place only (see EpidemicState)
        self.health_state = self.state.health_state
        self.days_remaining = self.state.days_remaining
        self.treatment = self.state.treatment
        self.day = 0
        self.result = SimulationResult(
            curve=EpiCurve(), final_histogram={},
            final_health_state=self.health_state, final_days_remaining=self.days_remaining,
        )
        # Interventions/components hold per-run trigger state; clearing
        # it here makes one Scenario object reusable across runs.
        scenario.interventions.reset()

    @classmethod
    def from_spec(
        cls, spec, graph=None, collect_location_stats: bool = False
    ) -> "SequentialSimulator":
        """Build from a :class:`repro.spec.RunSpec` (the canonical run
        definition); ``graph`` short-circuits the population build."""
        return cls(
            spec.build_scenario(graph),
            collect_location_stats=collect_location_stats,
            kernel=spec.runtime.kernel,
        )

    # ------------------------------------------------------------------
    def step_day(self) -> tuple[DayResult, LocationPhaseResult]:
        """Execute one simulated day, record it in :attr:`result` (day,
        infect records, curve, location statistics); return its result
        and phase detail."""
        with observe.span("sim.day", day=self.day):
            state, sc = self.state, self.scenario
            ctx, seeded = day_steps.open_day(state, sc, self.day)
            transitions, keep = day_steps.person_phase(state, sc, ctx)
            # Steps 2 and 4, the sync points, are implicit here; the
            # parallel runtimes run real completion-detection protocols.
            phase = day_steps.location_phase(
                state, sc, self.day, removed=None if keep is None else ~keep,
                kernel=self.kernel, collect_stats=self.collect_location_stats,
            )
            infected = day_steps.apply_phase(state, sc, self.day, phase.records[:, 0])
            visits_made = sc.graph.n_visits if keep is None else int(np.count_nonzero(keep))
            day_result = day_steps.close_day(
                state, sc, ctx, seeded=seeded, visits_made=visits_made,
                transitions=transitions, infected=infected,
            )
            record = self.result
            record.days.append(day_result)
            record.infection_log[self.day] = phase.records
            record.curve.record_day(day_result.new_infections, day_result.prevalence)
            if self.collect_location_stats:
                record.location_events.update(phase.events)
                record.location_interactions.update(phase.interactions)
            self.day += 1
            return day_result, phase

    # ------------------------------------------------------------------
    def run(self, until: int | None = None) -> SimulationResult:
        """Step the days before ``until`` (None or past the horizon: the
        scenario's last day) that have not run yet; return
        :attr:`result`, the whole run's record so far."""
        end = self.scenario.n_days if until is None else min(until, self.scenario.n_days)
        with observe.span("sequential.run", days=self.scenario.n_days):
            while self.day < end:
                self.step_day()
            self.result.final_histogram = state_histogram(self.health_state, self.scenario.disease)
            return self.result
