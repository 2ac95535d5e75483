"""Intervention DSL — vaccination, closures, behavioural changes.

Section II-A: "EpiSimdemics has a domain-specific language for
specifying complex interventions and behavior, such as vaccinations,
school closures, and anxiety levels."  This module provides the
intervention classes plus a small line-oriented script parser
(:func:`parse_intervention_script`) reproducing that capability.

Interventions hook into the per-day algorithm at two points:

* **treatment updates** (before the person phase) — e.g. a vaccination
  campaign flips persons to the ``VACCINATED`` treatment, changing
  their PTTS transition set;
* **visit filtering** (during the person phase) — e.g. a school closure
  suppresses visits to SCHOOL locations; symptomatic persons stay home
  with some compliance probability.

Triggers may be a fixed day or a *prevalence threshold* — the latter is
how the paper's H1N1 course-of-action analyses were posed ("close
schools when 1% are infected").
"""

from __future__ import annotations

import abc
import shlex
import struct
from dataclasses import dataclass, field

import numpy as np

from repro.core.disease import VACCINATED
from repro.synthpop.graph import LocationType, PersonLocationGraph
from repro.util import distinct
from repro.util.rng import RngFactory

__all__ = [
    "DayContext",
    "Intervention",
    "Vaccination",
    "SchoolClosure",
    "WorkClosure",
    "StayHomeWhenSymptomatic",
    "WeekendSchedule",
    "AnxietyContactReduction",
    "InterventionSchedule",
    "parse_intervention_script",
]


@dataclass
class DayContext:
    """Everything an intervention may read when deciding to act.

    ``prevalence`` is the fraction of persons currently infected
    (latent or infectious); ``cumulative_attack`` the fraction ever
    infected.  Both refer to the *start* of the day (before today's
    PTTS transitions), so every execution mode sees the same values.
    ``health_state`` is the *live* array — visit filters run after the
    day's transitions and see current states.
    """

    day: int
    graph: PersonLocationGraph
    disease: "DiseaseModel"
    health_state: np.ndarray
    treatment: np.ndarray
    prevalence: float
    cumulative_attack: float
    rng_factory: RngFactory
    #: live dwell-timer array, for components that edit state centrally
    days_remaining: np.ndarray | None = None


class Intervention(abc.ABC):
    """Base class — the *model component* protocol.

    Subclasses override any subset of the day-phase hooks:

    * :meth:`update_treatments` — central, before PTTS transitions;
    * :meth:`filter_visits` — during the person phase, possibly on a
      row subset;
    * :meth:`post_apply` — central, after the apply phase (the day's
      infections are in), before the day's prevalence is recorded.
      This is where components edit PTTS state directly (vaccination
      moving persons into a waning state, hospital overflow, rebirth).

    ``filter_visits`` receives an optional ``rows`` array of visit
    indices: ``keep[i]`` corresponds to visit ``rows[i]``.  This is how
    PersonManager chares filter only the visits they own; passing
    ``rows=None`` means "all visits" (the sequential path).  Filters
    must only depend on per-visit/per-person data plus trigger state,
    so row-subset evaluation equals whole-array evaluation.

    Components additionally declare their mutable state:

    * :meth:`reset` clears it, so one :class:`Scenario` object can be
      run many times (every simulator calls it at construction);
    * :meth:`checkpoint_state` / :meth:`restore_state` round-trip it
      through :mod:`repro.core.checkpoint`;
    * components whose *filters* depend on centrally-computed state set
      ``has_wire_state`` and implement :meth:`wire_state` /
      :meth:`load_wire_state` so the SMP driver can broadcast that
      state to forked workers with the day kick;
    * :meth:`extra_transitions` / :meth:`reinfection_possible` tell the
      invariant checker which out-of-PTTS edits to expect.
    """

    #: True when the component's visit filter depends on central state
    #: that must be broadcast to SMP workers each day.
    has_wire_state: bool = False

    def update_treatments(self, ctx: DayContext) -> None:
        """Mutate ``ctx.treatment`` in place (e.g. vaccinate).

        Runs centrally once per day, before PTTS transitions.
        """

    def filter_visits(
        self, ctx: DayContext, keep: np.ndarray, rows: np.ndarray | None = None
    ) -> None:
        """Clear entries of the per-visit ``keep`` mask to cancel visits."""

    def post_apply(self, ctx: DayContext) -> None:
        """Edit person state after the day's infections are applied.

        Runs centrally once per day in every backend, at the same
        algorithmic point: after the apply phase, before the day's
        prevalence is computed.  May mutate ``ctx.health_state``,
        ``ctx.days_remaining`` and ``ctx.treatment``.
        """

    def reset(self) -> None:
        """Clear per-run mutable state so the component can run again.

        The default resets the common trigger/one-shot attributes;
        stateful components override (and call ``super().reset()``).
        """
        trigger = getattr(self, "trigger", None)
        if isinstance(trigger, _Trigger):
            trigger.fired_on = None
        if hasattr(self, "_done"):
            self._done = False

    def checkpoint_state(self) -> dict:
        """Declared mutable state as ``{name: scalar | ndarray}``.

        The default captures the common trigger/one-shot attributes;
        stateful components extend the dict (ndarray values are stored
        as checkpoint arrays, everything else in the JSON header).
        """
        state: dict = {}
        trigger = getattr(self, "trigger", None)
        if isinstance(trigger, _Trigger):
            state["fired_on"] = trigger.fired_on
        if hasattr(self, "_done"):
            state["done"] = bool(self._done)
        return state

    def restore_state(self, state: dict) -> None:
        """Restore what :meth:`checkpoint_state` declared."""
        trigger = getattr(self, "trigger", None)
        if isinstance(trigger, _Trigger) and "fired_on" in state:
            trigger.fired_on = state["fired_on"]
        if hasattr(self, "_done") and "done" in state:
            self._done = bool(state["done"])

    def wire_state(self) -> bytes:
        """Filter-relevant central state as bytes (SMP broadcast)."""
        return b""

    def load_wire_state(self, blob: bytes) -> None:
        """Adopt a :meth:`wire_state` blob (called on SMP workers)."""

    def extra_transitions(self, disease) -> list[tuple[str, str]]:
        """State-name pairs this component may move persons along
        outside the declared PTTS transitions (for the invariant
        checker)."""
        return []

    def reinfection_possible(self, disease) -> bool:
        """True when the component can return persons to a susceptible
        state, making cumulative infections exceed unique persons."""
        return False


@dataclass
class _Trigger:
    """When an intervention becomes active.

    Either a fixed ``day`` or a ``prevalence`` threshold; once fired it
    stays active for ``duration`` days (or forever if ``duration`` is
    None).  State (``fired_on``) lives here so intervention objects are
    single-run; build a fresh schedule per simulation.
    """

    day: int | None = None
    prevalence: float | None = None
    duration: int | None = None
    fired_on: int | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if (self.day is None) == (self.prevalence is None):
            raise ValueError("specify exactly one of day= or prevalence=")

    def active(self, ctx: DayContext) -> bool:
        if self.fired_on is None:
            if self.day is not None and ctx.day >= self.day:
                self.fired_on = ctx.day
            elif self.prevalence is not None and ctx.prevalence >= self.prevalence:
                self.fired_on = ctx.day
        if self.fired_on is None:
            return False
        if self.duration is None:
            return True
        return ctx.day < self.fired_on + self.duration


class Vaccination(Intervention):
    """Vaccinate a fraction of (an age band of) the population.

    One-shot: on the trigger day, ``coverage`` of eligible persons move
    to the VACCINATED treatment.  Vaccination changes the PTTS entry
    state (see :func:`repro.core.disease.influenza_model`), it does not
    retroactively cure.
    """

    def __init__(
        self,
        coverage: float,
        day: int = 0,
        prevalence: float | None = None,
        age_min: int = 0,
        age_max: int = 200,
    ):
        if not (0.0 <= coverage <= 1.0):
            raise ValueError("coverage must be in [0, 1]")
        self.coverage = coverage
        self.trigger = _Trigger(
            day=None if prevalence is not None else day, prevalence=prevalence, duration=1
        )
        self.age_min, self.age_max = age_min, age_max
        self._done = False

    def update_treatments(self, ctx: DayContext) -> None:
        if self._done or not self.trigger.active(ctx):
            return
        self._done = True
        ages = ctx.graph.person_age
        eligible = np.flatnonzero((ages >= self.age_min) & (ages <= self.age_max))
        if eligible.size == 0:
            return
        rng = ctx.rng_factory.stream(RngFactory.INTERVENTION, ctx.day, 0)
        chosen = eligible[rng.random(eligible.size) < self.coverage]
        ctx.treatment[chosen] = VACCINATED


class _ClosureBase(Intervention):
    """Suppress visits to one location type while the trigger is active."""

    location_type: LocationType

    def __init__(
        self,
        day: int | None = None,
        prevalence: float | None = None,
        duration: int | None = 14,
    ):
        self.trigger = _Trigger(day=day, prevalence=prevalence, duration=duration)

    def filter_visits(
        self, ctx: DayContext, keep: np.ndarray, rows: np.ndarray | None = None
    ) -> None:
        if not self.trigger.active(ctx):
            return
        locs = ctx.graph.visit_location if rows is None else ctx.graph.visit_location[rows]
        keep[ctx.graph.location_type[locs] == int(self.location_type)] = False


class SchoolClosure(_ClosureBase):
    """Close schools (the paper's canonical course-of-action lever)."""

    location_type = LocationType.SCHOOL


class WorkClosure(_ClosureBase):
    """Shut down workplaces."""

    location_type = LocationType.WORK


class StayHomeWhenSymptomatic(Intervention):
    """Symptomatic persons skip non-home visits with given compliance.

    Compliance draws are keyed per (day, person) so the behaviour is
    identical between sequential and chare-parallel execution.
    """

    def __init__(self, compliance: float = 0.5):
        if not (0.0 <= compliance <= 1.0):
            raise ValueError("compliance must be in [0, 1]")
        self.compliance = compliance

    def filter_visits(
        self, ctx: DayContext, keep: np.ndarray, rows: np.ndarray | None = None
    ) -> None:
        if self.compliance == 0.0:
            return
        g = ctx.graph
        persons = g.visit_person if rows is None else g.visit_person[rows]
        locations = g.visit_location if rows is None else g.visit_location[rows]
        sick_here = ctx.disease.symptomatic[ctx.health_state[persons]]
        if not sick_here.any():
            return
        sick_ids = distinct(persons[sick_here])
        draws = ctx.rng_factory.uniforms_for(RngFactory.INTERVENTION, ctx.day, sick_ids)
        stay = np.zeros(g.n_persons, dtype=bool)
        stay[sick_ids[draws < self.compliance]] = True
        non_home = locations != g.person_home[persons]
        keep[stay[persons] & non_home] = False


class WeekendSchedule(Intervention):
    """Normative weekly rhythm: work/school visits drop on weekends.

    The paper's populations carry *normative schedules*; runs span 120+
    days, i.e. many weeks, so the weekly rhythm matters for timing
    studies (a closure triggered on a Friday behaves differently).
    Persons skip WORK/SCHOOL visits on days ``day % 7 ∈ weekend_days``
    with probability ``compliance`` (keyed per (day, person), so every
    execution mode agrees).
    """

    def __init__(self, compliance: float = 0.9, weekend_days: tuple[int, int] = (5, 6)):
        if not (0.0 <= compliance <= 1.0):
            raise ValueError("compliance must be in [0, 1]")
        self.compliance = compliance
        self.weekend_days = tuple(weekend_days)

    def filter_visits(
        self, ctx: DayContext, keep: np.ndarray, rows: np.ndarray | None = None
    ) -> None:
        if ctx.day % 7 not in self.weekend_days:
            return
        g = ctx.graph
        persons = g.visit_person if rows is None else g.visit_person[rows]
        locations = g.visit_location if rows is None else g.visit_location[rows]
        types = g.location_type[locations]
        workish = (types == int(LocationType.WORK)) | (types == int(LocationType.SCHOOL))
        if not workish.any():
            return
        ids = distinct(persons[workish])
        draws = ctx.rng_factory.uniforms_for(RngFactory.INTERVENTION, ctx.day, ids, salt=1)
        skipping = np.zeros(g.n_persons, dtype=bool)
        skipping[ids[draws < self.compliance]] = True
        keep[workish & skipping[persons]] = False


class AnxietyContactReduction(Intervention):
    """Prevalence-responsive voluntary contact reduction.

    The paper's DSL models "anxiety levels" ([6]): as people perceive
    the epidemic, they voluntarily skip discretionary (SHOP/OTHER)
    visits.  The skip probability rises with prevalence:

        p_skip = strength · min(1, prevalence / saturation)

    keyed per (day, person) so all execution modes agree.  Unlike the
    closures, this feedback loop responds continuously — it flattens
    epidemic curves without any policy trigger.
    """

    _SALT = 2

    def __init__(self, strength: float = 0.6, saturation: float = 0.05):
        if not (0.0 <= strength <= 1.0):
            raise ValueError("strength must be in [0, 1]")
        if saturation <= 0:
            raise ValueError("saturation must be positive")
        self.strength = strength
        self.saturation = saturation

    def filter_visits(
        self, ctx: DayContext, keep: np.ndarray, rows: np.ndarray | None = None
    ) -> None:
        p_skip = self.strength * min(1.0, ctx.prevalence / self.saturation)
        if p_skip <= 0.0:
            return
        g = ctx.graph
        persons = g.visit_person if rows is None else g.visit_person[rows]
        locations = g.visit_location if rows is None else g.visit_location[rows]
        types = g.location_type[locations]
        discretionary = (types == int(LocationType.SHOP)) | (
            types == int(LocationType.OTHER)
        )
        if not discretionary.any():
            return
        ids = distinct(persons[discretionary])
        draws = ctx.rng_factory.uniforms_for(
            RngFactory.INTERVENTION, ctx.day, ids, salt=self._SALT
        )
        anxious = np.zeros(g.n_persons, dtype=bool)
        anxious[ids[draws < p_skip]] = True
        keep[discretionary & anxious[persons]] = False


#: wire-state entry header: (component index, payload bytes)
_WIRE_ENTRY = struct.Struct("<qq")


class InterventionSchedule:
    """An ordered bundle of interventions applied each day."""

    def __init__(self, interventions: list[Intervention] | None = None):
        self.interventions = list(interventions or [])

    def __len__(self) -> int:
        return len(self.interventions)

    def __iter__(self):
        return iter(self.interventions)

    def update_treatments(self, ctx: DayContext) -> None:
        for iv in self.interventions:
            iv.update_treatments(ctx)

    def visit_mask(self, ctx: DayContext, rows: np.ndarray | None = None) -> np.ndarray:
        """Keep-mask over ``rows`` (all visits when ``rows`` is None)."""
        n = ctx.graph.n_visits if rows is None else len(rows)
        keep = np.ones(n, dtype=bool)
        for iv in self.interventions:
            iv.filter_visits(ctx, keep, rows)
        return keep

    def post_apply(self, ctx: DayContext) -> None:
        for iv in self.interventions:
            iv.post_apply(ctx)

    def reset(self) -> None:
        for iv in self.interventions:
            iv.reset()

    def checkpoint_state(self) -> list[dict]:
        return [iv.checkpoint_state() for iv in self.interventions]

    def restore_state(self, states: list[dict]) -> None:
        if len(states) != len(self.interventions):
            raise ValueError(
                f"checkpoint has {len(states)} component state(s), "
                f"schedule has {len(self.interventions)}"
            )
        for iv, state in zip(self.interventions, states):
            iv.restore_state(state)

    def wire_state(self) -> bytes:
        """Concatenated per-component wire blobs; b'' when none apply.

        Components with ``has_wire_state`` always get an entry (even a
        zero-length payload) so workers see state *removals* too.
        """
        parts: list[bytes] = []
        for i, iv in enumerate(self.interventions):
            if not iv.has_wire_state:
                continue
            payload = iv.wire_state()
            parts.append(_WIRE_ENTRY.pack(i, len(payload)))
            parts.append(payload)
        return b"".join(parts)

    def load_wire_state(self, blob: bytes) -> None:
        offset = 0
        while offset < len(blob):
            index, nbytes = _WIRE_ENTRY.unpack_from(blob, offset)
            offset += _WIRE_ENTRY.size
            self.interventions[index].load_wire_state(blob[offset:offset + nbytes])
            offset += nbytes

    def extra_transitions(self, disease) -> list[tuple[str, str]]:
        edges: list[tuple[str, str]] = []
        for iv in self.interventions:
            edges.extend(iv.extra_transitions(disease))
        return edges

    def reinfection_possible(self, disease) -> bool:
        return any(iv.reinfection_possible(disease) for iv in self.interventions)


# ----------------------------------------------------------------------
# the script language
# ----------------------------------------------------------------------
_COMMANDS = {"vaccinate", "close_schools", "close_work", "stay_home", "weekends", "anxiety"}


def parse_intervention_script(text: str) -> InterventionSchedule:
    """Parse the intervention mini-language into a schedule.

    Grammar (one directive per line; ``#`` comments)::

        vaccinate      coverage=0.3 [day=0 | prevalence=0.01] [ages=5-18]
        close_schools  [day=N | prevalence=X] [duration=14]
        close_work     [day=N | prevalence=X] [duration=14]
        stay_home      [compliance=0.5]
        weekends       [compliance=0.9]
        anxiety        [strength=0.6] [saturation=0.05]

    Example
    -------
    >>> sched = parse_intervention_script('''
    ...     vaccinate coverage=0.25 day=0 ages=5-18
    ...     close_schools prevalence=0.01 duration=21
    ...     stay_home compliance=0.6
    ... ''')
    >>> len(sched)
    3
    """
    interventions: list[Intervention] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = shlex.split(line)
        cmd, kvs = tokens[0], tokens[1:]
        if cmd not in _COMMANDS:
            raise ValueError(f"line {lineno}: unknown directive {cmd!r}")
        args: dict[str, str] = {}
        for kv in kvs:
            if "=" not in kv:
                raise ValueError(f"line {lineno}: expected key=value, got {kv!r}")
            k, v = kv.split("=", 1)
            args[k] = v
        try:
            interventions.append(_build(cmd, args))
        except (KeyError, ValueError) as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
    return InterventionSchedule(interventions)


def _build(cmd: str, args: dict[str, str]) -> Intervention:
    def day_prev() -> dict:
        out: dict = {}
        if "day" in args:
            out["day"] = int(args.pop("day"))
        if "prevalence" in args:
            out["prevalence"] = float(args.pop("prevalence"))
        return out

    if cmd == "vaccinate":
        kwargs: dict = {"coverage": float(args.pop("coverage"))}
        kwargs.update(day_prev())
        if "ages" in args:
            lo, hi = args.pop("ages").split("-")
            kwargs["age_min"], kwargs["age_max"] = int(lo), int(hi)
        _reject_extra(args)
        return Vaccination(**kwargs)
    if cmd in ("close_schools", "close_work"):
        kwargs = day_prev()
        if "duration" in args:
            kwargs["duration"] = int(args.pop("duration"))
        _reject_extra(args)
        cls = SchoolClosure if cmd == "close_schools" else WorkClosure
        return cls(**kwargs)
    if cmd == "weekends":
        kwargs = {}
        if "compliance" in args:
            kwargs["compliance"] = float(args.pop("compliance"))
        _reject_extra(args)
        return WeekendSchedule(**kwargs)
    if cmd == "anxiety":
        kwargs = {}
        if "strength" in args:
            kwargs["strength"] = float(args.pop("strength"))
        if "saturation" in args:
            kwargs["saturation"] = float(args.pop("saturation"))
        _reject_extra(args)
        return AnxietyContactReduction(**kwargs)
    # stay_home
    kwargs = {}
    if "compliance" in args:
        kwargs["compliance"] = float(args.pop("compliance"))
    _reject_extra(args)
    return StayHomeWhenSymptomatic(**kwargs)


def _reject_extra(args: dict[str, str]) -> None:
    if args:
        raise ValueError(f"unexpected arguments: {sorted(args)}")
