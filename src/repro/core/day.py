"""The six-step day (paper §II-B, Figure 1) — written once.

A day is an *algorithm*; a backend only decides who owns which persons
and locations and how records move.  This module holds the algorithm as
plain functions over one struct-of-arrays (:class:`EpidemicState`):

* **central steps** — run once per day by whoever drives the run (the
  sequential loop, the charm ``_Driver`` through ``prepare_day`` /
  ``finish_day``, the smp driver): :func:`open_day` (seed index cases
  on the first call → :func:`prevalence` → cumulative attack →
  :func:`day_context` → ``update_treatments``) and :func:`close_day`
  (``post_apply`` → :func:`prevalence` → :class:`DayResult`);
* **owned steps** — run over what an owner owns (the sequential loop
  over everything, a ``_PersonManager`` chare or an smp worker over its
  share): persons and their visit rows for :func:`person_phase` (=
  :func:`advance_persons` then :func:`filter_visits`) and
  :func:`apply_phase`, a location mask for :func:`location_phase` (charm
  runs it once a day over every location and hands each
  ``_LocationManager`` its share, as it does the PTTS pass).

Every call of ``DayContext(…)``, ``advance_day``, ``visit_mask``,
``update_treatments``, ``compute_infections``, ``disease.infect`` and
``post_apply`` under ``src/`` is in this file
(``tests/test_one_of_everything.py`` pins that).

Why the three backends stay bit-identical to what each ran before
----------------------------------------------------------------
1. **Order.**  Per day every backend still runs *seed → prevalence →
   ctx → update_treatments → advance_day → visit_mask →
   compute_infections → infect → post_apply → prevalence*; the
   backends put barriers (detectors, rings, the day barrier) *between*
   these calls, never reorder them.  ``tests/core/day_loop_reference.py``
   keeps the previous sequential loop verbatim as the oracle.
2. **Owned subsets.**  Draws are keyed by ``(day, person)`` /
   ``(day, location, person)``, and ``advance_day(subset=…)`` and
   ``visit_mask(ctx, rows)`` over disjoint persons / rows, and
   ``compute_infections(owned=…)`` over disjoint **location masks**,
   equal the whole-population calls, so ownership only selects work.
   The location phase also takes the day's **removed-visit mask** (the
   rows ``visit_mask`` dropped, written by their owners): no owner
   lists or sorts visit rows.
3. **Charges and frames.**  The functions return the counts
   (``n_transitions``, the keep mask, :class:`LocationPhaseResult`)
   the charm chares turn into virtual time with the float expressions
   they always used, and the smp workers pack into the same report
   frames (infect records already are the wire's int64 rows), so
   modelled time and ``wire_bytes`` cannot move; nothing here charges.
4. **Randomness.**  No key, draw or RNG-contract version changes: the
   functions pass ``scenario.rng_factory`` (a pure function of the
   scenario seed) to the same primitives with the same arguments.

Nothing here imports :mod:`repro.smp`, :mod:`repro.charm` or
``multiprocessing`` — the sequential path pays for none of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.disease import UNTREATED
from repro.core.exposure import LocationPhaseResult, compute_infections
from repro.core.interventions import DayContext
from repro.core.scenario import Scenario

__all__ = [
    "EpidemicState",
    "DayResult",
    "PhaseTimes",
    "OwnershipPlan",
    "prevalence",
    "day_context",
    "open_day",
    "close_day",
    "advance_persons",
    "filter_visits",
    "person_phase",
    "location_phase",
    "apply_phase",
]


@dataclass
class EpidemicState:
    """The per-person state of one run, as four parallel arrays.

    The arrays are only ever mutated **in place** — simulators expose
    them as ``sim.health_state`` etc. and the smp backend places them
    in shared memory, so rebinding one would silently fork the state.
    """

    health_state: np.ndarray
    days_remaining: np.ndarray
    treatment: np.ndarray
    ever_infected: np.ndarray
    #: index cases drawn yet?  (:func:`open_day` seeds on its first call)
    seeded: bool = False

    #: the array fields — also the checkpoint's npz keys
    ARRAYS = ("health_state", "days_remaining", "treatment", "ever_infected")

    @classmethod
    def initial(cls, scenario: Scenario) -> "EpidemicState":
        """Everyone susceptible and untreated, nobody ever infected."""
        n = scenario.graph.n_persons
        health_state, days_remaining = scenario.disease.initial_health(n)
        return cls(
            health_state=health_state,
            days_remaining=days_remaining,
            treatment=np.full(n, UNTREATED, dtype=np.int32),
            ever_infected=np.zeros(n, dtype=bool),
        )


@dataclass
class DayResult:
    """What one simulated day produced."""

    day: int
    visits_made: int
    new_infections: int
    transitions: int
    prevalence: float


@dataclass
class PhaseTimes:
    """One day's phase boundaries: virtual seconds on the simulated
    runtime, measured wall-clock seconds from the run origin on smp
    (each boundary is the *last* worker's crossing)."""

    day: int
    start: float
    visits_done: float
    locations_done: float
    day_done: float

    @property
    def person_phase(self) -> float:
        return self.visits_done - self.start

    @property
    def location_phase(self) -> float:
        return self.locations_done - self.visits_done

    @property
    def total(self) -> float:
        return self.day_done - self.start


@dataclass
class OwnershipPlan:
    """Who owns what: persons (and their visit rows) per PersonManager,
    locations per LocationManager (``location_owner == lm`` is the mask
    :func:`location_phase` takes) — chares on the simulated runtime, the
    two halves of a worker process on smp."""

    #: person id -> owning PersonManager
    person_owner: np.ndarray
    #: location id -> owning LocationManager
    location_owner: np.ndarray
    #: per PersonManager: owned person ids (ascending)
    persons: list[np.ndarray]
    #: per PersonManager: visit rows of its persons (ascending)
    visit_rows: list[np.ndarray]

    @classmethod
    def build(
        cls, graph, person_owner: np.ndarray, location_owner: np.ndarray, n_pm: int
    ) -> "OwnershipPlan":
        person_owner = person_owner.astype(np.int64, copy=False)
        location_owner = location_owner.astype(np.int64, copy=False)
        row_owner = person_owner[graph.visit_person]
        return cls(
            person_owner=person_owner,
            location_owner=location_owner,
            persons=[np.flatnonzero(person_owner == c) for c in range(n_pm)],
            visit_rows=[np.flatnonzero(row_owner == c) for c in range(n_pm)],
        )


# ----------------------------------------------------------------------
# central steps
# ----------------------------------------------------------------------
def prevalence(state: EpidemicState, scenario: Scenario) -> float:
    """Fraction of persons currently infected: ever infected, not
    susceptible any more, not yet settled into a terminal state.

    Counts the ever-infected persons per state, so a day costs what they
    cost plus one mask scan; ``ValueError`` if one's state is out of range.
    """
    d = scenario.disease
    infected = state.health_state[state.ever_infected]
    if infected.size and (infected.min() < 0 or infected.max() >= d.n_states):
        raise ValueError("health_state out of range")
    per_state = np.bincount(infected, minlength=d.n_states)
    counted = ~d.is_terminal
    counted[d.susceptible_index] = False
    return float(per_state[counted].sum()) / max(1, scenario.graph.n_persons)


def day_context(
    state: EpidemicState, scenario: Scenario, day: int,
    prevalence: float, cumulative_attack: float,
) -> DayContext:
    """The day's :class:`DayContext` over the live state arrays.

    The driver passes what it just measured; an smp worker passes the
    two floats it received with the day kick.
    """
    return DayContext(
        day=day,
        graph=scenario.graph,
        disease=scenario.disease,
        health_state=state.health_state,
        treatment=state.treatment,
        prevalence=prevalence,
        cumulative_attack=cumulative_attack,
        rng_factory=scenario.rng_factory,
        days_remaining=state.days_remaining,
    )


def open_day(state: EpidemicState, scenario: Scenario, day: int) -> tuple[DayContext, int]:
    """Central start of day; returns the context and the number of
    index cases seeded (non-zero on a run's first day only).

    The context carries start-of-day (pre-transition) prevalence so
    central intervention decisions are identical in every backend.
    """
    seeded = 0
    if not state.seeded:
        # Index cases are infect messages applied on "day -1".
        seeded = apply_phase(state, scenario, -1, scenario.index_cases())
        state.seeded = True
    ctx = day_context(
        state, scenario, day,
        prevalence(state, scenario),
        np.count_nonzero(state.ever_infected) / state.ever_infected.size,
    )
    scenario.interventions.update_treatments(ctx)
    return ctx, seeded


def close_day(
    state: EpidemicState, scenario: Scenario, ctx: DayContext, *,
    seeded: int, visits_made: int, transitions: int, infected: int,
) -> DayResult:
    """Central end of day, once every owner has applied its infections.

    ``post_apply`` is where components edit state centrally: after the
    day's infections are in, before prevalence is recorded.
    """
    scenario.interventions.post_apply(ctx)
    return DayResult(
        day=ctx.day,
        visits_made=visits_made,
        new_infections=infected + seeded,
        transitions=transitions,
        prevalence=prevalence(state, scenario),
    )


# ----------------------------------------------------------------------
# owned steps
# ----------------------------------------------------------------------
def advance_persons(
    state: EpidemicState, scenario: Scenario, ctx: DayContext, persons: np.ndarray | None = None
) -> np.ndarray:
    """Step 1a for ``persons`` (None = everyone): fire due PTTS
    transitions; returns the ids of the persons whose state changed."""
    return scenario.disease.advance_day(
        state.health_state, state.days_remaining, state.treatment,
        ctx.day, ctx.rng_factory, subset=persons,
    )


def filter_visits(
    scenario: Scenario, ctx: DayContext, rows: np.ndarray | None = None
) -> np.ndarray | None:
    """Step 1b: the interventions' keep mask over the visit ``rows``
    (None = every visit), or None when every one of them happens today
    — the day with no intervention active builds no per-row array."""
    keep = scenario.interventions.visit_mask(ctx, rows)
    return None if keep.all() else keep


def person_phase(
    state: EpidemicState, scenario: Scenario, ctx: DayContext,
    persons: np.ndarray | None = None, rows: np.ndarray | None = None,
) -> tuple[int, np.ndarray | None]:
    """Step 1 for ``persons`` and their visit ``rows`` (None = everyone):
    :func:`advance_persons` then :func:`filter_visits`; returns
    ``(n_transitions, keep mask over rows or None)``.  Charm calls the
    two apart: one advance over everyone a day, then a filter per PM."""
    changed = advance_persons(state, scenario, ctx, persons)
    return int(changed.size), filter_visits(scenario, ctx, rows)


def location_phase(
    state: EpidemicState, scenario: Scenario, day: int,
    owned: np.ndarray | None = None, removed: np.ndarray | None = None,
    kernel: str | None = None, collect_stats: bool = False,
) -> LocationPhaseResult:
    """Step 3 over the ``owned`` locations (bool mask, None = all) and
    the visits of theirs not ``removed`` today (bool mask over visit
    rows, None = none removed) — :func:`compute_infections`."""
    return compute_infections(
        scenario.graph, state.health_state, scenario.disease,
        scenario.transmission, day, scenario.rng_factory,
        owned=owned, removed=removed, collect_stats=collect_stats, kernel=kernel,
    )


def apply_phase(
    state: EpidemicState, scenario: Scenario, day: int, persons: np.ndarray
) -> int:
    """Step 5: apply the infect messages addressed to ``persons``;
    returns how many were actually infected (duplicates and the no
    longer susceptible drop out)."""
    infected = scenario.disease.infect(
        persons, state.health_state, state.days_remaining, state.treatment,
        day=day, rng_factory=scenario.rng_factory,
    )
    state.ever_infected[infected] = True
    return int(infected.size)
