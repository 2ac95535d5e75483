"""The sequential day loop as it was written out before ``core/day.py`` — a test oracle.

``ReferenceDayLoop`` is ``SequentialSimulator.__init__`` /
``_seed_index_cases`` / ``_prevalence`` / ``_step_day`` as they stood
when every backend carried its own copy of the day, kept verbatim and
calling the production primitives (``advance_day``, ``visit_mask``,
``compute_infections``, ``infect``, ``post_apply``) directly.  It
*defines* the order of a day.  Now that the sequential loop, the charm
chares and the smp workers all run the same phase functions, a mistake
in those functions (``post_apply`` before ``infect``, say) is common to
all three and invisible to the cross-backend matrices; this loop shares
nothing with them but the primitives (``test_one_day.py``).  Nothing
under ``src/`` calls it.
"""

import numpy as np

from repro.core.disease import UNTREATED
from repro.core.exposure import LocationPhaseResult, compute_infections
from repro.core.interventions import DayContext
from repro.core.scenario import Scenario
from repro.core.simulator import DayResult


class ReferenceDayLoop:
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
            g,
            self.health_state,
            d,
            sc.transmission,
            day,
            self.rng_factory,
            removed=~keep,
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
