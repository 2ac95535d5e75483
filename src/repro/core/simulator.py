"""Sequential reference simulator — the paper's six-step day loop.

This is the semantic ground truth: the chare-parallel runtime in
:mod:`repro.core.parallel` must produce exactly the same epidemic
trajectory (asserted by integration tests).  Per day (paper §II-B):

1. each person recalculates health state and decides the day's visits
   (interventions applied), emitting *visit* messages;
2. synchronisation (trivially satisfied here);
3. each location builds its DES from the visit messages and computes
   susceptible×infectious interactions, emitting *infect* messages;
4. synchronisation;
5. infected persons update their health state;
6. global system state is updated.

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
from repro.core.disease import UNTREATED
from repro.core.exposure import LocationPhaseResult, compute_infections
from repro.core.interventions import DayContext
from repro.core.metrics import EpiCurve, state_histogram
from repro.core.scenario import Scenario

__all__ = ["DayResult", "SimulationResult", "SequentialSimulator"]


@dataclass
class DayResult:
    """What one simulated day produced."""

    day: int
    visits_made: int
    new_infections: int
    transitions: int
    prevalence: float


@dataclass
class SimulationResult:
    """Full-run output: the epidemic curve plus final state."""

    curve: EpiCurve
    final_histogram: dict[str, int]
    days: list[DayResult] = field(default_factory=list)
    #: summed per-location DES statistics (when stats collection is on)
    location_events: Counter = field(default_factory=Counter)
    location_interactions: Counter = field(default_factory=Counter)

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
        (needed when fitting the load model; ~15% slower).
    kernel:
        Exposure-kernel selection passed through to
        :func:`~repro.core.exposure.compute_infections` (one of
        :data:`~repro.core.exposure.KERNELS`; None = the module default).
        Kernels are bit-for-bit equivalent — this is a performance knob
        and the lever for old-vs-new differential testing.
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
        g = scenario.graph
        self.rng_factory = scenario.rng_factory
        self.health_state, self.days_remaining = scenario.disease.initial_health(g.n_persons)
        self.treatment = np.full(g.n_persons, UNTREATED, dtype=np.int32)
        self._ever_infected = np.zeros(g.n_persons, dtype=bool)
        self.day = 0
        self._seeded = False
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
    def _seed_index_cases(self) -> int:
        cases = self.scenario.index_cases()
        infected = self.scenario.disease.infect(
            cases, self.health_state, self.days_remaining, self.treatment,
            day=-1, rng_factory=self.rng_factory,
        )
        self._ever_infected[infected] = True
        return int(infected.size)

    def _prevalence(self) -> float:
        # "currently infected" = ever infected, not susceptible anymore,
        # and not yet settled into a terminal (absorbing, inert) state.
        d = self.scenario.disease
        if not hasattr(self, "_terminal_states"):
            # Non-infectious absorbing states are terminal even when
            # partially susceptible (e.g. a cross-immune recovered
            # state): the person is not "currently infected" anymore.
            self._terminal_states = np.array(
                [s.dwell.kind.name == "FOREVER" and not s.is_infectious
                 for s in d.states]
            )
        infected_now = self._ever_infected & (self.health_state != d.susceptible_index)
        infected_now &= ~self._terminal_states[self.health_state]
        return float(infected_now.sum()) / max(1, self.scenario.graph.n_persons)

    # ------------------------------------------------------------------
    def step_day(self) -> tuple[DayResult, "LocationPhaseResult"]:
        """Execute one simulated day; return its result and phase detail."""
        with observe.span("sim.day", day=self.day):
            return self._step_day()

    def _step_day(self) -> tuple[DayResult, "LocationPhaseResult"]:
        sc = self.scenario
        g = sc.graph
        d = sc.disease
        day = self.day

        seeded = 0
        if not self._seeded:
            seeded = self._seed_index_cases()
            self._seeded = True

        # Day context uses start-of-day (pre-transition) prevalence so
        # central intervention decisions are identical in every
        # execution mode.
        ctx = DayContext(
            day=day,
            graph=g,
            disease=d,
            health_state=self.health_state,
            treatment=self.treatment,
            prevalence=self._prevalence(),
            cumulative_attack=float(self._ever_infected.mean()),
            rng_factory=self.rng_factory,
            days_remaining=self.days_remaining,
        )
        sc.interventions.update_treatments(ctx)

        # Step 1a: recalculate health state (PTTS dwell expirations).
        transitions = d.advance_day(
            self.health_state, self.days_remaining, self.treatment, day, self.rng_factory
        )

        # Step 1b: decide today's visits (interventions filter).
        keep = sc.interventions.visit_mask(ctx)
        visit_rows = np.flatnonzero(keep)

        # Steps 2–4: location phase (sync points are implicit here; the
        # parallel runtime runs real completion-detection protocols).
        phase = compute_infections(
            visit_rows,
            g,
            self.health_state,
            d,
            sc.transmission,
            day,
            self.rng_factory,
            collect_stats=self.collect_location_stats,
            kernel=self.kernel,
        )

        # Step 5: apply infect messages.
        new_persons = np.asarray([ev.person for ev in phase.infections], dtype=np.int64)
        infected = d.infect(
            new_persons, self.health_state, self.days_remaining, self.treatment,
            day=day, rng_factory=self.rng_factory,
        )
        self._ever_infected[infected] = True

        # Post-apply hook: components edit state centrally, after the
        # day's infections are in, before prevalence is recorded.  The
        # parallel backends run this at the same algorithmic point.
        sc.interventions.post_apply(ctx)

        self.day += 1
        return DayResult(
            day=day,
            visits_made=int(visit_rows.size),
            new_infections=int(infected.size) + seeded,
            transitions=int(transitions.size),
            prevalence=self._prevalence(),
        ), phase

    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        """Run all scenario days; return the aggregated result."""
        with observe.span("sequential.run", days=self.scenario.n_days):
            curve = EpiCurve()
            result = SimulationResult(curve=curve, final_histogram={})
            for _ in range(self.scenario.n_days):
                day_result, phase = self.step_day()
                result.days.append(day_result)
                curve.record_day(day_result.new_infections, day_result.prevalence)
                if self.collect_location_stats:
                    result.location_events.update(phase.events)
                    result.location_interactions.update(phase.interactions)
            result.final_histogram = state_histogram(self.health_state, self.scenario.disease)
            return result
