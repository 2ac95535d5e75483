"""Pluggable model components — the scenario building blocks.

Each component subclasses the :class:`~repro.core.interventions.Intervention`
protocol and overrides a subset of its day-phase hooks:

* ``update_treatments`` — central, before the day's PTTS transitions
  (variant routing, quarantine roster maintenance);
* ``filter_visits`` — during the person phase, possibly on a row
  subset owned by one PE (quarantine keeps people home);
* ``post_apply`` — central, after the apply phase in every backend
  (vaccination moving persons into a waning state, hospital overflow,
  demographic turnover).

Every stochastic choice is keyed under the dedicated
:data:`repro.util.rng.RngFactory.SCENARIO` prefix by ``(day, person)``
with a per-purpose salt, so a scenario's epidemic is bit-identical on
the sequential, chare-parallel and shared-memory backends — the
differential oracle's scenario cells
(:func:`repro.validate.oracle.run_scenario_matrix`) diff every
registered scenario's run record across them.

Components also *declare* their behaviour: checkpointable state
(:meth:`~repro.core.interventions.Intervention.checkpoint_state`),
out-of-PTTS state edits for the invariant checker
(:meth:`~repro.core.interventions.Intervention.extra_transitions`),
and — for :class:`TestTraceQuarantine`, whose visit filter depends on
a centrally maintained roster — per-day wire state broadcast to the
forked SMP workers.
"""

from __future__ import annotations

import numpy as np

from repro.core.disease import FOREVER, UNTREATED, VACCINATED, DiseaseModel
from repro.core.interventions import DayContext, Intervention, _Trigger
from repro.util.rng import RngFactory

__all__ = [
    "ModelComponent",
    "WaningVaccination",
    "TestTraceQuarantine",
    "HospitalCapacity",
    "DemographicTurnover",
    "VariantAssignment",
]


def _predecessors(disease: DiseaseModel, target: str) -> list[str]:
    """Names of states with a declared transition into ``target``."""
    preds = []
    for s in disease.states:
        for trs in s.transitions.values():
            if any(tr.target == target for tr in trs):
                preds.append(s.name)
                break
    return preds


class ModelComponent(Intervention):
    """Marker base for scenario components.

    Identical to :class:`~repro.core.interventions.Intervention` — the
    subclass exists so scenario code reads as *model components* (they
    edit disease state, not just behaviour) and so tools can tell the
    two families apart.

    >>> issubclass(ModelComponent, Intervention)
    True
    """


class WaningVaccination(ModelComponent):
    """One-shot vaccination into a finite, waning vaccine state.

    On the trigger day, ``coverage`` of currently susceptible persons
    move into ``vaccine_state`` (a partially immune PTTS state whose
    dwell expires back to susceptible — see
    :func:`repro.scenarios.models.waning_model`) and are tagged with
    the ``VACCINATED`` treatment; the tag is cleared once the person
    wanes back to ``S``.  Unlike the plain
    :class:`~repro.core.interventions.Vaccination` (a pure treatment
    flip), protection here lives in the state graph: it reduces
    susceptibility *now* and disappears on its own clock.

    >>> c = WaningVaccination(coverage=0.4, day=2)
    >>> sorted(c.checkpoint_state())
    ['done', 'fired_on']
    """

    _SALT_SELECT = 0
    _SALT_DWELL = 1

    def __init__(self, coverage: float, day: int = 0, vaccine_state: str = "V"):
        if not (0.0 <= coverage <= 1.0):
            raise ValueError("coverage must be in [0, 1]")
        self.coverage = coverage
        self.vaccine_state = vaccine_state
        self.trigger = _Trigger(day=day, duration=1)
        self._done = False

    def update_treatments(self, ctx: DayContext) -> None:
        d = ctx.disease
        waned = (ctx.health_state == d.susceptible_index) & (
            ctx.treatment == VACCINATED
        )
        ctx.treatment[waned] = UNTREATED

    def post_apply(self, ctx: DayContext) -> None:
        if self._done or not self.trigger.active(ctx):
            return
        self._done = True
        d = ctx.disease
        v = d.index[self.vaccine_state]
        sus = np.flatnonzero(ctx.health_state == d.susceptible_index)
        if sus.size == 0:
            return
        draws = ctx.rng_factory.uniforms_for(
            RngFactory.SCENARIO, ctx.day, sus, salt=self._SALT_SELECT
        )
        chosen = sus[draws < self.coverage]
        # The dwell is the first draw of stream (SCENARIO, day, p,
        # _SALT_DWELL), batched over the chosen persons.
        seeds, (words,) = ctx.rng_factory.keyed_raw(
            1, RngFactory.SCENARIO, ctx.day, chosen, self._SALT_DWELL
        )
        ctx.days_remaining[chosen] = d._draw_dwell(
            np.full(chosen.size, v), seeds, words, drawn=0
        )
        ctx.health_state[chosen] = v
        ctx.treatment[chosen] = VACCINATED

    def extra_transitions(self, disease) -> list[tuple[str, str]]:
        sus = disease.states[disease.susceptible_index].name
        return [(sus, self.vaccine_state)]


class TestTraceQuarantine(ModelComponent):
    """Symptomatic testing, delayed reporting, household quarantine.

    Each day, unreported symptomatic persons test positive with
    probability ``detection``; the report lands ``report_delay`` days
    later, at which point the case is quarantined for
    ``quarantine_days`` and each household member complies with
    probability ``compliance``.  Quarantined persons skip all non-home
    visits.

    The roster lives centrally (built in ``update_treatments`` on the
    driver); because the *visit filter* needs it on every PE, the
    component sets ``has_wire_state`` and ships active
    ``(person, until)`` pairs with the SMP day kick — forked workers
    filter from the broadcast pairs, the other backends read the
    central arrays directly, and both paths produce the same mask.

    >>> c = TestTraceQuarantine(detection=0.5)
    >>> c.has_wire_state
    True
    >>> c.load_wire_state(b"")   # a day with an empty roster
    >>> c._wire_pairs.shape
    (0, 2)
    """

    __test__ = False  # class name pattern-matches pytest collection
    has_wire_state = True
    _SALT_DETECT = 2
    _SALT_COMPLY = 3

    def __init__(
        self,
        detection: float = 0.5,
        report_delay: int = 2,
        quarantine_days: int = 7,
        compliance: float = 0.8,
    ):
        for name, p in (("detection", detection), ("compliance", compliance)):
            if not (0.0 <= p <= 1.0):
                raise ValueError(f"{name} must be in [0, 1]")
        if report_delay < 0 or quarantine_days < 1:
            raise ValueError("need report_delay >= 0 and quarantine_days >= 1")
        self.detection = detection
        self.report_delay = report_delay
        self.quarantine_days = quarantine_days
        self.compliance = compliance
        self.reset()

    def reset(self) -> None:
        super().reset()
        self._reported: np.ndarray | None = None
        self._quarantined_until: np.ndarray | None = None
        self._pending: list[tuple[int, int]] = []
        self._wire_pairs: np.ndarray | None = None

    def _ensure(self, n_persons: int) -> None:
        if self._reported is None:
            self._reported = np.zeros(n_persons, dtype=bool)
            self._quarantined_until = np.full(n_persons, -1, dtype=np.int64)

    def update_treatments(self, ctx: DayContext) -> None:
        g = ctx.graph
        self._ensure(g.n_persons)
        # 1. testing: unreported symptomatic persons test positive.
        sympt = np.flatnonzero(
            ctx.disease.symptomatic[ctx.health_state] & ~self._reported
        )
        if sympt.size:
            draws = ctx.rng_factory.uniforms_for(
                RngFactory.SCENARIO, ctx.day, sympt, salt=self._SALT_DETECT
            )
            detected = sympt[draws < self.detection]
            self._reported[detected] = True
            for p in detected.tolist():
                self._pending.append((ctx.day + self.report_delay, p))
        # 2. reports that came due today: quarantine case + household.
        due = sorted(p for (d, p) in self._pending if d <= ctx.day)
        self._pending = [(d, p) for (d, p) in self._pending if d > ctx.day]
        if not due:
            return
        cases = np.asarray(due, dtype=np.int64)
        until = ctx.day + self.quarantine_days
        contacts = np.flatnonzero(np.isin(g.person_home, g.person_home[cases]))
        draws = ctx.rng_factory.uniforms_for(
            RngFactory.SCENARIO, ctx.day, contacts, salt=self._SALT_COMPLY
        )
        comply = contacts[draws < self.compliance]
        self._quarantined_until[comply] = np.maximum(
            self._quarantined_until[comply], until
        )
        # Index cases isolate regardless of household compliance.
        self._quarantined_until[cases] = np.maximum(
            self._quarantined_until[cases], until
        )

    def filter_visits(
        self, ctx: DayContext, keep: np.ndarray, rows: np.ndarray | None = None
    ) -> None:
        g = ctx.graph
        quarantined = np.zeros(g.n_persons, dtype=bool)
        if self._wire_pairs is not None:
            pairs = self._wire_pairs
            quarantined[pairs[pairs[:, 1] > ctx.day, 0]] = True
        elif self._quarantined_until is not None:
            quarantined = self._quarantined_until > ctx.day
        if not quarantined.any():
            return
        persons = g.visit_person if rows is None else g.visit_person[rows]
        locations = g.visit_location if rows is None else g.visit_location[rows]
        non_home = locations != g.person_home[persons]
        keep[quarantined[persons] & non_home] = False

    # -- state declarations --------------------------------------------
    def wire_state(self) -> bytes:
        if self._quarantined_until is None:
            return b""
        active = np.flatnonzero(self._quarantined_until >= 0)
        pairs = np.stack(
            [active, self._quarantined_until[active]], axis=1
        ).astype(np.int64)
        return pairs.tobytes()

    def load_wire_state(self, blob: bytes) -> None:
        self._wire_pairs = np.frombuffer(blob, dtype=np.int64).reshape(-1, 2)

    def checkpoint_state(self) -> dict:
        state = super().checkpoint_state()
        state["pending"] = np.asarray(
            self._pending or np.empty((0, 2)), dtype=np.int64
        ).reshape(-1, 2)
        if self._reported is not None:
            state["reported"] = self._reported.copy()
            state["quarantined_until"] = self._quarantined_until.copy()
        return state

    def restore_state(self, state: dict) -> None:
        super().restore_state(state)
        if "pending" in state:
            self._pending = [
                (int(d), int(p))
                for d, p in np.asarray(state["pending"]).reshape(-1, 2)
            ]
        if "reported" in state:
            self._reported = np.asarray(state["reported"], dtype=bool).copy()
            self._quarantined_until = np.asarray(
                state["quarantined_until"], dtype=np.int64
            ).copy()


class HospitalCapacity(ModelComponent):
    """Finite hospital ward; excess patients land in the overflow ward.

    After each day's transitions, if more than ``beds`` persons occupy
    ``hospital_state``, the excess (deterministically, the highest
    person ids — no draws needed) moves to ``overflow_state`` keeping
    its dwell timer; the overflow state's transition set carries the
    higher mortality (:func:`repro.scenarios.models.hospital_model`).

    >>> HospitalCapacity(beds=5).beds
    5
    """

    def __init__(
        self, beds: int, hospital_state: str = "H", overflow_state: str = "H_over"
    ):
        if beds < 0:
            raise ValueError("beds must be non-negative")
        self.beds = beds
        self.hospital_state = hospital_state
        self.overflow_state = overflow_state

    def post_apply(self, ctx: DayContext) -> None:
        d = ctx.disease
        in_ward = np.flatnonzero(
            ctx.health_state == d.index[self.hospital_state]
        )
        if in_ward.size <= self.beds:
            return
        overflow = in_ward[self.beds:]
        ctx.health_state[overflow] = d.index[self.overflow_state]

    def extra_transitions(self, disease) -> list[tuple[str, str]]:
        # Direct move, plus the compound hop a same-day I -> H -> H_over
        # sequence shows the invariant checker.
        edges = [(self.hospital_state, self.overflow_state)]
        for pred in _predecessors(disease, self.hospital_state):
            edges.append((pred, self.overflow_state))
        return edges


class DemographicTurnover(ModelComponent):
    """Births and deaths at the population boundary.

    Persons in a terminal state (absorbing, neither infectious nor
    susceptible — recovered or dead) are replaced by a fresh
    susceptible with probability ``rate`` per day: same person id, new
    life.  This keeps the population size constant while reopening the
    susceptible pool, so epidemics can re-ignite — the component
    declares ``reinfection_possible`` so the conservation invariant
    relaxes to ``cumulative >= unique``.

    >>> DemographicTurnover(rate=0.1).reinfection_possible(None)
    True
    """

    _SALT = 4

    def __init__(self, rate: float = 0.05):
        if not (0.0 <= rate <= 1.0):
            raise ValueError("rate must be in [0, 1]")
        self.rate = rate

    @staticmethod
    def _terminal(disease: DiseaseModel) -> np.ndarray:
        return np.array(
            [
                s.dwell.kind.name == "FOREVER"
                and not s.is_infectious
                and not s.is_susceptible
                for s in disease.states
            ]
        )

    def post_apply(self, ctx: DayContext) -> None:
        d = ctx.disease
        gone = np.flatnonzero(self._terminal(d)[ctx.health_state])
        if gone.size == 0:
            return
        draws = ctx.rng_factory.uniforms_for(
            RngFactory.SCENARIO, ctx.day, gone, salt=self._SALT
        )
        reborn = gone[draws < self.rate]
        if reborn.size == 0:
            return
        ctx.health_state[reborn] = d.susceptible_index
        ctx.days_remaining[reborn] = FOREVER
        ctx.treatment[reborn] = UNTREATED

    def reinfection_possible(self, disease) -> bool:
        return True

    def extra_transitions(self, disease) -> list[tuple[str, str]]:
        sus = disease.states[disease.susceptible_index].name
        terminal = [
            s.name for s, t in zip(disease.states, self._terminal(disease)) if t
        ]
        edges = [(t, sus) for t in terminal]
        for t in terminal:
            for pred in _predecessors(disease, t):
                edges.append((pred, sus))
        return edges


class VariantAssignment(ModelComponent):
    """Route neutral infections to a variant lane, frequency-dependent.

    :func:`repro.scenarios.models.two_variant_model` enters every new
    infection in the neutral ``E_pick`` state; this component, running
    *before* the day's PTTS transitions, reassigns those persons to the
    A or B exposed lane (keeping their latency timer) with probability
    proportional to each variant's current shedder count — ``bias``
    breaks the tie when neither circulates yet.  Running in
    ``update_treatments`` guarantees the placeholder ``E_pick``
    transition can never fire: the timer is >= 1 at infection and the
    reassignment lands before the next decrement.

    >>> VariantAssignment(bias=0.5).bias
    0.5
    """

    _SALT = 5

    def __init__(self, bias: float = 0.5):
        if not (0.0 <= bias <= 1.0):
            raise ValueError("bias must be in [0, 1]")
        self.bias = bias

    def update_treatments(self, ctx: DayContext) -> None:
        d = ctx.disease
        undecided = np.flatnonzero(ctx.health_state == d.index["E_pick"])
        if undecided.size == 0:
            return
        shedders_a = [d.index["I_A"], d.index["I_A2"]]
        shedders_b = [d.index["I_B"], d.index["I_B2"]]
        n_a = int(np.isin(ctx.health_state, shedders_a).sum())
        n_b = int(np.isin(ctx.health_state, shedders_b).sum())
        p_a = self.bias if (n_a + n_b) == 0 else n_a / (n_a + n_b)
        draws = ctx.rng_factory.uniforms_for(
            RngFactory.SCENARIO, ctx.day, undecided, salt=self._SALT
        )
        to_a = draws < p_a
        ctx.health_state[undecided[to_a]] = d.index["E_A"]
        ctx.health_state[undecided[~to_a]] = d.index["E_B"]

    def reinfection_possible(self, disease) -> bool:
        return bool(disease.infection_entry_by_state)

    def extra_transitions(self, disease) -> list[tuple[str, str]]:
        edges = [("E_pick", "E_A"), ("E_pick", "E_B")]
        # Compound reinfection hop: I_A -> R_A (declared) and
        # R_A -> E_B2 (entry) can land within one day.
        for src, dst in disease.infection_entry_by_state.items():
            for pred in _predecessors(disease, src):
                edges.append((pred, dst))
        return edges
