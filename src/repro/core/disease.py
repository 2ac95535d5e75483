"""Probabilistic Timed Transition System (PTTS) disease models.

Section II-A of the paper: a person's health state is a finite state
machine where each state carries

* a **dwell-time distribution** — how long the person remains in the
  state before automatically transitioning,
* **probabilistic transitions** to successor states, and
* per-**treatment** transition sets (e.g. vaccinated people move from
  exposed to an attenuated infectious state more rarely).

States also carry the epidemiological coefficients consumed by the
transmission function: *infectivity* (how strongly an occupant of this
state sheds) and *susceptibility* (how easily they acquire).

The implementation is array-oriented: a :class:`DiseaseModel` compiles
its states into flat NumPy arrays, and the daily update
(:meth:`DiseaseModel.advance_day`, :meth:`DiseaseModel.infect`) is
loop-free over persons.  Every transition still owns the keyed stream
``RngFactory.stream(PERSON, day, person, salt)`` and draws from it what
``Generator.random()`` (branch choice) and :meth:`DwellDistribution.sample`
(dwell) would draw, but no ``Generator`` is built: one batched
:meth:`~repro.util.rng.RngFactory.keyed_raw` call returns the streams'
seeds and first raw 64-bit outputs, and
:meth:`DwellDistribution.replay` applies numpy's own
integer / geometric transforms to those words in array arithmetic.  The
rows a replay does not cover (GAMMA, GEOMETRIC with ``p < 1/3``, a
Lemire rejection) fall back, row by row, to a real ``Generator`` on the
same seed and ``sample`` — numpy stays the definition of every draw.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.util.pcg import (
    GEOMETRIC_SEARCH_MIN_P,
    bounded_int32,
    geometric_search,
    to_double,
)
from repro.util import distinct
from repro.util.rng import RngFactory

__all__ = [
    "DwellKind",
    "DwellDistribution",
    "Transition",
    "HealthState",
    "DiseaseModel",
    "influenza_model",
    "sir_model",
    "UNTREATED",
    "VACCINATED",
]

#: Treatment set indices.  The paper mentions vaccination as the primary
#: treatment distinguishing transition sets; more can be registered.
UNTREATED = 0
VACCINATED = 1

#: Sentinel dwell meaning "remain until an external trigger" (e.g. the
#: susceptible state waits for an infect message; recovered is absorbing).
FOREVER = np.iinfo(np.int32).max


class DwellKind(enum.IntEnum):
    """Supported dwell-time distribution families (in whole days)."""

    FIXED = 0
    UNIFORM = 1  # inclusive integer range [a, b]
    GEOMETRIC = 2  # support {1, 2, ...} with success prob p
    GAMMA = 3  # continuous gamma rounded up to >= 1 day
    FOREVER = 4


@dataclass(frozen=True)
class DwellDistribution:
    """Dwell time of a PTTS state, in days.

    Use the class methods (``fixed``, ``uniform``, ...) rather than the
    raw constructor.
    """

    kind: DwellKind
    a: float = 0.0
    b: float = 0.0

    @classmethod
    def fixed(cls, days: int) -> "DwellDistribution":
        if days < 1:
            raise ValueError("fixed dwell must be >= 1 day")
        return cls(DwellKind.FIXED, float(days))

    @classmethod
    def uniform(cls, lo: int, hi: int) -> "DwellDistribution":
        if not (1 <= lo <= hi):
            raise ValueError("need 1 <= lo <= hi")
        return cls(DwellKind.UNIFORM, float(lo), float(hi))

    @classmethod
    def geometric(cls, p: float) -> "DwellDistribution":
        if not (0.0 < p <= 1.0):
            raise ValueError("geometric p must be in (0, 1]")
        return cls(DwellKind.GEOMETRIC, p)

    @classmethod
    def gamma(cls, shape: float, scale: float) -> "DwellDistribution":
        if shape <= 0 or scale <= 0:
            raise ValueError("gamma parameters must be positive")
        return cls(DwellKind.GAMMA, shape, scale)

    @classmethod
    def forever(cls) -> "DwellDistribution":
        return cls(DwellKind.FOREVER)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` dwell times (int32 days; FOREVER uses the sentinel)."""
        if self.kind == DwellKind.FIXED:
            return np.full(n, int(self.a), dtype=np.int32)
        if self.kind == DwellKind.UNIFORM:
            return rng.integers(int(self.a), int(self.b) + 1, size=n, dtype=np.int32)
        if self.kind == DwellKind.GEOMETRIC:
            return rng.geometric(self.a, size=n).astype(np.int32)
        if self.kind == DwellKind.GAMMA:
            return np.maximum(1, np.ceil(rng.gamma(self.a, self.b, size=n))).astype(np.int32)
        return np.full(n, FOREVER, dtype=np.int32)

    def replay(self, words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised ``sample(gen, 1)[0]`` over many streams at once.

        ``words[j]`` is the next raw 64-bit output of stream ``j``
        (:func:`repro.util.pcg.raw_outputs`).  Returns ``(days,
        replayed)``: where ``replayed[j]`` is true, ``days[j]`` is
        bit-identical to what :meth:`sample` draws from that stream;
        the other rows need the live ``Generator`` (their ``days`` are
        unspecified).  FIXED, FOREVER and one-point UNIFORM consume no
        output and always replay.
        """
        n = words.size
        every = np.ones(n, dtype=bool)
        if self.kind == DwellKind.FIXED:
            return np.full(n, int(self.a), dtype=np.int32), every
        if self.kind == DwellKind.FOREVER:
            return np.full(n, FOREVER, dtype=np.int32), every
        if self.kind == DwellKind.UNIFORM:
            return bounded_int32(words, int(self.a), int(self.b))
        if self.kind == DwellKind.GEOMETRIC and self.a >= GEOMETRIC_SEARCH_MIN_P:
            days, finished = geometric_search(words, self.a)
            return days.astype(np.int32), finished
        # GAMMA, GEOMETRIC by inversion: ziggurat draws, not replayed.
        return np.zeros(n, dtype=np.int32), ~every

    @property
    def mean(self) -> float:
        """Expected dwell in days (inf for FOREVER)."""
        if self.kind == DwellKind.FIXED:
            return self.a
        if self.kind == DwellKind.UNIFORM:
            return (self.a + self.b) / 2.0
        if self.kind == DwellKind.GEOMETRIC:
            return 1.0 / self.a
        if self.kind == DwellKind.GAMMA:
            return max(1.0, self.a * self.b)
        return float("inf")


@dataclass(frozen=True)
class Transition:
    """A probabilistic edge of the PTTS: go to ``target`` w.p. ``prob``."""

    target: str
    prob: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.prob <= 1.0):
            raise ValueError(f"transition probability {self.prob} outside [0, 1]")


@dataclass(frozen=True)
class HealthState:
    """One PTTS state.

    Parameters
    ----------
    name:
        Unique state label.
    infectivity:
        Shedding coefficient used by the transmission function; 0 for
        non-infectious states.
    susceptibility:
        Acquisition coefficient; 0 for non-susceptible states.
    dwell:
        Dwell-time distribution.
    transitions:
        Mapping ``treatment -> [Transition, ...]``; each list's
        probabilities must sum to 1 (within fp tolerance).  Treatments
        not present fall back to :data:`UNTREATED`'s list.  Absorbing
        states use an empty mapping with a FOREVER dwell.
    symptomatic:
        Whether the state is symptomatic — drives the stay-home
        behaviour intervention.
    """

    name: str
    infectivity: float = 0.0
    susceptibility: float = 0.0
    dwell: DwellDistribution = field(default_factory=DwellDistribution.forever)
    transitions: dict[int, tuple[Transition, ...]] = field(default_factory=dict)
    symptomatic: bool = False

    @property
    def is_infectious(self) -> bool:
        return self.infectivity > 0.0

    @property
    def is_susceptible(self) -> bool:
        return self.susceptibility > 0.0


class DiseaseModel:
    """A compiled PTTS over a fixed state list.

    Parameters
    ----------
    states:
        The PTTS states; order defines state indices.
    susceptible:
        Name of the initial (susceptible) state.
    infection_entry:
        Mapping ``treatment -> state name`` entered upon receiving an
        infect message.  Missing treatments fall back to UNTREATED's
        entry state.
    infection_entry_by_state:
        Optional mapping ``current state name -> entry state name``
        overriding the treatment-based entry for persons infected
        *while in* that state.  This is how partially-immune states
        route to a different lane (e.g. two-variant cross-immunity:
        recovered-from-A persons reinfect into the variant-B lane).
        States listed here must have ``susceptibility > 0``.
    """

    def __init__(
        self,
        states: list[HealthState],
        susceptible: str,
        infection_entry: dict[int, str],
        infection_entry_by_state: dict[str, str] | None = None,
    ):
        if len({s.name for s in states}) != len(states):
            raise ValueError("duplicate state names")
        self.states = list(states)
        self.index = {s.name: i for i, s in enumerate(states)}
        if susceptible not in self.index:
            raise ValueError(f"unknown susceptible state {susceptible!r}")
        if UNTREATED not in infection_entry:
            raise ValueError("infection_entry must define the UNTREATED entry state")
        for t, name in infection_entry.items():
            if name not in self.index:
                raise ValueError(f"unknown infection entry state {name!r} for treatment {t}")
        self.susceptible_index = self.index[susceptible]
        self.infection_entry = dict(infection_entry)
        self.infection_entry_by_state = dict(infection_entry_by_state or {})
        for src, dst in self.infection_entry_by_state.items():
            if src not in self.index or dst not in self.index:
                raise ValueError(f"unknown state in infection entry {src!r} -> {dst!r}")
            if self.states[self.index[src]].susceptibility <= 0.0:
                raise ValueError(f"infection entry source {src!r} is not susceptible")
        # Per-state infection entry override (-1: enter by treatment).
        self._entry_override = np.full(len(states), -1, dtype=np.int32)
        for src, dst in self.infection_entry_by_state.items():
            self._entry_override[self.index[src]] = self.index[dst]

        self.infectivity = np.array([s.infectivity for s in states], dtype=np.float64)
        self.susceptibility = np.array([s.susceptibility for s in states], dtype=np.float64)
        self.symptomatic = np.array([s.symptomatic for s in states], dtype=bool)
        self.is_infectious = self.infectivity > 0
        self.is_susceptible = self.susceptibility > 0
        # Non-infectious absorbing states are terminal even when
        # partially susceptible (e.g. a cross-immune recovered state):
        # a person there is not "currently infected" any more.
        self.is_terminal = np.array(
            [s.dwell.kind == DwellKind.FOREVER and not s.is_infectious for s in states]
        )

        # Validate transitions and cache (state, treatment) -> (targets, cumprobs).
        self._compiled: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        treatments: set[int] = {UNTREATED}
        for s in states:
            treatments.update(s.transitions.keys())
        self.treatments = sorted(treatments)
        for i, s in enumerate(states):
            has_transitions = bool(s.transitions)
            if has_transitions and s.dwell.kind == DwellKind.FOREVER:
                raise ValueError(f"state {s.name!r} has transitions but FOREVER dwell")
            if not has_transitions and s.dwell.kind != DwellKind.FOREVER:
                raise ValueError(f"state {s.name!r} has finite dwell but no transitions")
            for t in self.treatments:
                trs = s.transitions.get(t, s.transitions.get(UNTREATED, ()))
                if not trs:
                    continue
                total = sum(tr.prob for tr in trs)
                if abs(total - 1.0) > 1e-9:
                    raise ValueError(
                        f"transitions of state {s.name!r} (treatment {t}) sum to {total}, not 1"
                    )
                targets = np.array([self.index[tr.target] for tr in trs], dtype=np.int32)
                cum = np.cumsum([tr.prob for tr in trs])
                self._compiled[(i, t)] = (targets, cum)

    @property
    def n_states(self) -> int:
        return len(self.states)

    def state_index(self, name: str) -> int:
        return self.index[name]

    def initial_health(self, n_persons: int) -> tuple[np.ndarray, np.ndarray]:
        """Fresh ``(state, days_remaining)`` arrays — everyone susceptible."""
        state = np.full(n_persons, self.susceptible_index, dtype=np.int32)
        remaining = np.full(n_persons, FOREVER, dtype=np.int32)
        return state, remaining

    def entry_state(self, treatment: int) -> int:
        """State index entered on infection under ``treatment``."""
        name = self.infection_entry.get(treatment, self.infection_entry[UNTREATED])
        return self.index[name]

    # ------------------------------------------------------------------
    # daily update
    # ------------------------------------------------------------------
    # Randomness is keyed per (day, person) — see repro.util.rng — so the
    # outcome is independent of the order in which persons are processed.
    # This is what lets the chare-parallel execution reproduce the
    # sequential reference bit-for-bit regardless of data distribution.

    _ADVANCE_SALT = 0
    _INFECT_SALT = 1

    def advance_day(
        self,
        state: np.ndarray,
        remaining: np.ndarray,
        treatment: np.ndarray,
        day: int,
        rng_factory,
        subset: np.ndarray | None = None,
    ) -> np.ndarray:
        """Apply one day of PTTS evolution **in place**.

        Decrements dwell timers and fires all due transitions (a person
        makes at most one transition per day — dwell times are >= 1).
        Returns the indices of persons whose state changed, which the
        simulator uses for bookkeeping and dynamic-load statistics.

        ``subset`` restricts the update to the given (distinct) person
        ids — this is how PersonManager chares advance only the persons
        they own.  Because draws are keyed per (day, person), advancing
        the whole population at once or as a disjoint union of subsets
        yields identical results.

        The due persons are handled as one batch: branch choice is the
        first output of each person's keyed stream, dwell in the new
        state the second (see the module docstring).
        """
        if subset is None:
            live = remaining != FOREVER
            np.subtract(remaining, 1, out=remaining, where=live)
            due = np.flatnonzero(remaining <= 0)  # FOREVER > 0: only live timers
        else:
            subset = np.asarray(subset, dtype=np.int64)
            live = subset[remaining[subset] != FOREVER]
            remaining[live] -= 1
            due = live[remaining[live] <= 0]
        if due.size == 0:
            return due
        seeds, (branch_words, dwell_words) = rng_factory.keyed_raw(
            2, RngFactory.PERSON, day, due, self._ADVANCE_SALT
        )
        u = to_double(branch_words)
        s = state[due]
        t = treatment[due]
        t = np.where(np.isin(t, self.treatments), t, UNTREATED)
        target = np.full(due.size, -1, dtype=np.int32)
        for (si, ti), (targets, cum) in self._compiled.items():
            rows = np.flatnonzero((s == si) & (t == ti))
            if rows.size:
                choice = np.searchsorted(cum, u[rows], side="right")
                target[rows] = targets[np.minimum(choice, len(targets) - 1)]
        # A state without transitions stays put (it only comes due if a
        # caller hand-set its timer; the model's own dwell is FOREVER).
        moved = target >= 0
        due, target, seeds, dwell_words = (a[moved] for a in (due, target, seeds, dwell_words))
        state[due] = target
        remaining[due] = self._draw_dwell(target, seeds, dwell_words, drawn=1)
        return due.astype(np.int64, copy=False)

    def infect(
        self,
        persons: np.ndarray,
        state: np.ndarray,
        remaining: np.ndarray,
        treatment: np.ndarray,
        day: int,
        rng_factory,
    ) -> np.ndarray:
        """Move ``persons`` from a susceptible state into their entry state.

        Persons not currently in a susceptible state (``susceptibility
        > 0``) are ignored (a person may receive several infect
        messages in one day; the first wins and the rest are dropped,
        matching the paper's step 5).  The entry state is chosen per
        ``infection_entry_by_state`` for partially-immune states, else
        per treatment.  Returns the persons actually infected.
        """
        persons = distinct(np.asarray(persons, dtype=np.int64))
        hit = persons[self.is_susceptible[state[persons]]]
        if hit.size == 0:
            return hit
        t = treatment[hit]
        entry = np.full(hit.size, self.entry_state(UNTREATED), dtype=np.int32)
        for ti in self.infection_entry:
            entry[t == ti] = self.entry_state(ti)
        override = self._entry_override[state[hit]]
        entry = np.where(override >= 0, override, entry)
        seeds, (words,) = rng_factory.keyed_raw(1, RngFactory.PERSON, day, hit, self._INFECT_SALT)
        state[hit] = entry
        remaining[hit] = self._draw_dwell(entry, seeds, words, drawn=0)
        return hit

    def _draw_dwell(
        self, new_state: np.ndarray, seeds: np.ndarray, words: np.ndarray, drawn: int
    ) -> np.ndarray:
        """Dwell (int32 days) of each row's freshly entered state.

        Row ``j``'s stream is seeded by ``seeds[j]``, has already
        yielded ``drawn`` doubles, and ``words[j]`` is its next raw
        output.  Rows :meth:`DwellDistribution.replay` does not cover
        are drawn from a real Generator advanced to the same point.
        """
        out = np.empty(new_state.size, dtype=np.int32)
        for ns in distinct(new_state):
            rows = np.flatnonzero(new_state == ns)
            dwell = self.states[ns].dwell
            days, replayed = dwell.replay(words[rows])
            out[rows] = days
            for r in rows[~replayed]:
                gen = np.random.Generator(np.random.PCG64(int(seeds[r])))
                gen.random(drawn)
                out[r] = dwell.sample(gen, 1)[0]
        return out


# ----------------------------------------------------------------------
# model presets
# ----------------------------------------------------------------------
def influenza_model(
    r0_scale: float = 1.0,
    vaccine_efficacy: float = 0.8,
) -> DiseaseModel:
    """An H1N1-like influenza PTTS.

    Structure (the standard EpiSimdemics flu template)::

        susceptible --infect--> latent --> {infectious_symptomatic (67%),
                                            infectious_asymptomatic (33%)}
                                        --> recovered

    Vaccinated persons enter a ``latent_vax`` state that mostly resolves
    without becoming infectious (``vaccine_efficacy`` of the time).
    """
    if not (0.0 <= vaccine_efficacy <= 1.0):
        raise ValueError("vaccine_efficacy must be within [0, 1]")
    symp_frac = 0.67
    states = [
        HealthState("susceptible", susceptibility=1.0 * r0_scale),
        HealthState(
            "latent",
            dwell=DwellDistribution.uniform(1, 3),
            transitions={
                UNTREATED: (
                    Transition("infectious_symptomatic", symp_frac),
                    Transition("infectious_asymptomatic", 1.0 - symp_frac),
                )
            },
        ),
        HealthState(
            "latent_vax",
            dwell=DwellDistribution.uniform(1, 3),
            transitions={
                UNTREATED: (
                    Transition("recovered", vaccine_efficacy),
                    Transition("infectious_asymptomatic", 1.0 - vaccine_efficacy),
                )
            },
        ),
        HealthState(
            "infectious_symptomatic",
            infectivity=1.0,
            symptomatic=True,
            dwell=DwellDistribution.uniform(3, 6),
            transitions={UNTREATED: (Transition("recovered", 1.0),)},
        ),
        HealthState(
            "infectious_asymptomatic",
            infectivity=0.5,
            dwell=DwellDistribution.uniform(3, 6),
            transitions={UNTREATED: (Transition("recovered", 1.0),)},
        ),
        HealthState("recovered"),
    ]
    return DiseaseModel(
        states,
        susceptible="susceptible",
        infection_entry={UNTREATED: "latent", VACCINATED: "latent_vax"},
    )


def sir_model(
    infectious_days: int = 4,
    latent_days: int = 2,
) -> DiseaseModel:
    """A minimal S→E→I→R chain used by unit tests and the quickstart."""
    states = [
        HealthState("S", susceptibility=1.0),
        HealthState(
            "E",
            dwell=DwellDistribution.fixed(latent_days),
            transitions={UNTREATED: (Transition("I", 1.0),)},
        ),
        HealthState(
            "I",
            infectivity=1.0,
            symptomatic=True,
            dwell=DwellDistribution.fixed(infectious_days),
            transitions={UNTREATED: (Transition("R", 1.0),)},
        ),
        HealthState("R"),
    ]
    return DiseaseModel(states, susceptible="S", infection_entry={UNTREATED: "E"})
