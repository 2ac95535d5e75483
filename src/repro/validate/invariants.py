"""Runtime invariant checks for the parallel execution.

The sequential↔parallel equivalence guarantee rests on a handful of
structural invariants that every data distribution, detector and
delivery mode must preserve.  :class:`InvariantChecker` turns them into
online assertions threaded through :class:`~repro.core.parallel.
ParallelEpiSimdemics` (enable with ``validate=True``):

* **partition conservation** — every person/visit row is owned by
  exactly one PersonManager and every location by exactly one
  LocationManager;
* **exactly-once visit delivery** — the multiset of visit rows the PMs
  push into the aggregation channel equals the multiset the LMs take
  out, and each row arrives at the LM that owns its location;
* **detector-closure soundness** — no visit (infect) message is
  delivered after the visit (infect) phase's detector declared
  completion;
* **unique RNG keys** — no two infection events of one day share a
  ``(day, location, person)`` transmission key (a duplicate means two
  LMs computed the same draw — the classic split-brain bug);
* **legal PTTS steps** — between day boundaries every person moves at
  most one hop along the disease model's transition graph (dwell
  expiry or infection entry), never teleporting or resurrecting;
* **infection conservation** — the epi-curve's cumulative count equals
  the number of ever-infected persons.

A failed check raises :class:`InvariantViolation` immediately with the
offending day/location/person; passed checks are counted in
``checks_passed`` so tests can assert coverage.  The infection events
themselves are the run record's (``SimulationResult.infection_log``),
which the differential oracle (:mod:`repro.validate.oracle`) diffs
against the sequential reference.

:class:`~repro.charm.scheduler.RuntimeSimulator` accepts its own
``validate=`` flag for the runtime-level invariants (drained
aggregation buffers at exit, sane detector counters) — see
``RuntimeSimulator.run`` and :mod:`repro.charm.completion`.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

__all__ = ["InvariantViolation", "InvariantChecker"]


class InvariantViolation(AssertionError):
    """A runtime invariant of the parallel execution was broken.

    Subclasses ``AssertionError`` so plain test harnesses catch it too:

    >>> try:
    ...     raise InvariantViolation("day 2: person 3 delivered twice")
    ... except AssertionError as e:
    ...     print(e)
    day 2: person 3 delivered twice
    """


class InvariantChecker:
    """Online invariant checks for one :class:`ParallelEpiSimdemics` run.

    Parameters
    ----------
    graph:
        The scenario's :class:`~repro.synthpop.graph.PersonLocationGraph`.
    disease:
        The scenario's compiled PTTS model.
    distribution:
        The object→chare :class:`~repro.core.parallel.Distribution`.
    extra_transitions:
        Additional ``(src, dst)`` state-name pairs a scenario component
        may move persons along outside the declared PTTS transitions
        (e.g. a vaccination campaign's ``S -> V`` edit, hospital
        overflow) — see
        :meth:`repro.core.interventions.Intervention.extra_transitions`.
    reinfection_ok:
        When True, components can return persons to a susceptible
        state, so the conservation check relaxes to "cumulative
        infections >= unique ever-infected persons".

    Attach one by passing ``validate=True`` to
    :class:`~repro.core.parallel.ParallelEpiSimdemics`; every check it
    performs during the run increments :attr:`checks_passed` and any
    broken invariant raises :class:`InvariantViolation` immediately:

    >>> from repro.charm.machine import Machine, MachineConfig
    >>> from repro.core import Scenario, TransmissionModel
    >>> from repro.core.parallel import Distribution, ParallelEpiSimdemics
    >>> from repro.partition import round_robin_partition
    >>> from repro.synthpop import PopulationConfig, generate_population
    >>> g = generate_population(PopulationConfig(n_persons=60), 0)
    >>> mc = MachineConfig(n_nodes=1, cores_per_node=4, smp=False)
    >>> m = Machine(mc)
    >>> dist = Distribution.from_partition(round_robin_partition(g, m.n_pes), m)
    >>> sc = Scenario(graph=g, n_days=2, seed=0, initial_infections=3,
    ...               transmission=TransmissionModel(2e-4))
    >>> sim = ParallelEpiSimdemics(sc, mc, dist, validate=True)
    >>> _ = sim.run()
    >>> sim.checker.checks_passed > 0
    True
    """

    def __init__(
        self,
        graph,
        disease,
        distribution,
        extra_transitions: tuple = (),
        reinfection_ok: bool = False,
    ):
        self.graph = graph
        self.disease = disease
        self.distribution = distribution
        self.reinfection_ok = bool(reinfection_ok)
        self.checks_passed = 0
        self._day = -1
        self._state0: np.ndarray | None = None
        self._visit_phase_open = False
        self._infect_phase_open = False
        self._visits_sent: Counter = Counter()
        self._visits_recv: Counter = Counter()
        self._infects_sent = 0
        self._infects_recv = 0
        self._rng_keys_used: set[tuple[int, int, int]] = set()
        self._allowed = self._allowed_transitions(disease, extra_transitions)

    # ------------------------------------------------------------------
    @staticmethod
    def _allowed_transitions(disease, extra_transitions: tuple = ()) -> np.ndarray:
        """Boolean matrix: ``allowed[s0, s1]`` iff a person may move from
        state ``s0`` to ``s1`` within one simulated day."""
        n = disease.n_states
        allowed = np.eye(n, dtype=bool)
        for i, s in enumerate(disease.states):
            for transitions in s.transitions.values():
                for tr in transitions:
                    allowed[i, disease.index[tr.target]] = True
        # Infection: every susceptible state -> its entry state(s) —
        # per-state overrides first, else every treatment's entry.
        by_state = getattr(disease, "infection_entry_by_state", {})
        for i, s in enumerate(disease.states):
            if not s.is_susceptible:
                continue
            if s.name in by_state:
                allowed[i, disease.index[by_state[s.name]]] = True
            else:
                for name in disease.infection_entry.values():
                    allowed[i, disease.index[name]] = True
        for src, dst in extra_transitions:
            allowed[disease.index[src], disease.index[dst]] = True
        return allowed

    def _fail(self, message: str) -> None:
        raise InvariantViolation(message)

    def _ok(self) -> None:
        self.checks_passed += 1

    # ------------------------------------------------------------------
    # structural checks (run once, at simulation construction)
    # ------------------------------------------------------------------
    def check_partition(self, pm_persons, pm_rows, lm_locations) -> None:
        """Persons, visit rows and locations each partition exactly."""
        g = self.graph
        owners = np.zeros(g.n_persons, dtype=np.int64)
        for persons in pm_persons:
            owners[persons] += 1
        if not np.all(owners == 1):
            p = int(np.flatnonzero(owners != 1)[0])
            self._fail(
                f"person conservation broken: person {p} is owned by "
                f"{int(owners[p])} PersonManagers (expected exactly 1)"
            )
        self._ok()
        row_owners = np.zeros(g.n_visits, dtype=np.int64)
        for rows in pm_rows:
            row_owners[rows] += 1
        if not np.all(row_owners == 1):
            r = int(np.flatnonzero(row_owners != 1)[0])
            self._fail(
                f"visit-row conservation broken: row {r} is owned by "
                f"{int(row_owners[r])} PersonManagers (expected exactly 1)"
            )
        self._ok()
        loc_owners = np.zeros(g.n_locations, dtype=np.int64)
        for locs in lm_locations:
            loc_owners[locs] += 1
        if not np.all(loc_owners == 1):
            loc = int(np.flatnonzero(loc_owners != 1)[0])
            self._fail(
                f"location conservation broken: location {loc} is owned by "
                f"{int(loc_owners[loc])} LocationManagers (expected exactly 1)"
            )
        self._ok()

    # ------------------------------------------------------------------
    # day lifecycle
    # ------------------------------------------------------------------
    def begin_day(self, day: int, health_state: np.ndarray) -> None:
        """Snapshot start-of-day state (call after seeding, before phases)."""
        self._day = day
        self._state0 = health_state.copy()
        self._visit_phase_open = True
        self._infect_phase_open = True
        self._visits_sent.clear()
        self._visits_recv.clear()
        self._infects_sent = 0
        self._infects_recv = 0

    # -- visit phase -----------------------------------------------------
    def record_visits_sent(self, rows: np.ndarray) -> None:
        self._visits_sent.update(np.asarray(rows).ravel().tolist())

    def record_visits_received(self, rows: np.ndarray, lm_index: int) -> None:
        """Count one delivered batch of visit rows at LM ``lm_index``."""
        rows = np.asarray(rows, dtype=np.int64).ravel()
        if not self._visit_phase_open:
            self._fail(
                f"detector-closure soundness broken: visit row {int(rows[0])} was "
                f"delivered after the day-{self._day} visit phase closed"
            )
        locations = self.graph.visit_location[rows]
        owners = self.distribution.location_chare[locations]
        stray = np.flatnonzero(owners != lm_index)
        if stray.size:
            i = stray[0]
            self._fail(
                f"misrouted visit: row {int(rows[i])} (location "
                f"{int(locations[i])}) arrived at LM {lm_index} "
                f"but LM {int(owners[i])} owns that location"
            )
        self._visits_recv.update(rows.tolist())

    def close_visit_phase(self, channel=None) -> None:
        """The visit detector completed: delivery must be exactly-once."""
        self._visit_phase_open = False
        if self._visits_sent != self._visits_recv:
            lost = self._visits_sent - self._visits_recv
            extra = self._visits_recv - self._visits_sent
            if lost:
                row, n = next(iter(sorted(lost.items())))
                self._fail(
                    f"visit delivery broken on day {self._day}: row {row} was "
                    f"sent but {n} cop{'y' if n == 1 else 'ies'} never arrived"
                )
            row, n = next(iter(sorted(extra.items())))
            self._fail(
                f"visit delivery broken on day {self._day}: row {row} was "
                f"delivered {n} more time(s) than it was sent"
            )
        self._ok()
        if channel is not None and channel.pending():
            self._fail(
                f"aggregation channel {channel.name!r} still buffers records "
                f"after the day-{self._day} visit phase closed"
            )
        self._ok()

    # -- location / infect phase ----------------------------------------
    def record_infections(self, day: int, events) -> None:
        """Count a LocationManager's infect messages; keys must be unique."""
        for ev in events:
            key = (day, ev.location, ev.person)
            if key in self._rng_keys_used:
                self._fail(
                    f"duplicate transmission RNG key {key}: two infection "
                    f"events share (day={day}, location={ev.location}, "
                    f"person={ev.person}) — the same keyed draw was taken twice"
                )
            self._rng_keys_used.add(key)
            self._infects_sent += 1
        self._ok()

    def record_infect_received(self, person: int) -> None:
        if not self._infect_phase_open:
            self._fail(
                f"detector-closure soundness broken: an infect message for "
                f"person {person} arrived after the day-{self._day} infect "
                f"phase closed"
            )
        self._infects_recv += 1

    def close_infect_phase(self) -> None:
        self._infect_phase_open = False
        if self._infects_sent != self._infects_recv:
            self._fail(
                f"infect delivery broken on day {self._day}: "
                f"{self._infects_sent} infect messages sent, "
                f"{self._infects_recv} received"
            )
        self._ok()

    # -- day end ----------------------------------------------------------
    def end_day(
        self,
        day: int,
        health_state: np.ndarray,
        ever_infected: np.ndarray,
        curve,
    ) -> None:
        """Check PTTS legality and infection conservation at the day boundary."""
        if self._visit_phase_open or self._infect_phase_open:
            self._fail(
                f"day {day} ended with an open "
                f"{'visit' if self._visit_phase_open else 'infect'} phase"
            )
        self._ok()
        legal = self._allowed[self._state0, health_state]
        if not np.all(legal):
            p = int(np.flatnonzero(~legal)[0])
            s0 = self.disease.states[int(self._state0[p])].name
            s1 = self.disease.states[int(health_state[p])].name
            self._fail(
                f"illegal PTTS step on day {day}: person {p} moved "
                f"{s0!r} -> {s1!r}, which is not one dwell transition or an "
                f"infection entry"
            )
        self._ok()
        cum = curve.cumulative_infections[-1] if curve.cumulative_infections else 0
        unique = int(ever_infected.sum())
        # With reinfection (waned immunity, demographic turnover) one
        # person can be infected several times, so the cumulative count
        # may exceed — but never undershoot — the unique-person count.
        broken = cum < unique if self.reinfection_ok else cum != unique
        if broken:
            self._fail(
                f"infection conservation broken on day {day}: the epi-curve "
                f"counts {cum} cumulative infections but {unique} "
                f"persons were ever infected"
            )
        self._ok()
