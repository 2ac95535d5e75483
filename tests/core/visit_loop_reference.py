"""The charm backend's per-object bookkeeping, kept as a test oracle.

The pieces production replaced, each kept verbatim, which together
*define* what the vectorised forms must reproduce exactly — phase
times, total virtual time, runtime statistics, tracked chare costs, LB
moves, the epidemic (``test_visit_batches.py``); nothing under ``src/``
calls them:

* ``LoopPersonManager.person_phase`` — each PersonManager advances its
  own persons' PTTS (``advance_day(subset=…)``), then sends one
  ``det.produce()`` and one scalar ``send_via`` per visit row;
* ``loop_prepare_day`` — the start of day that went with it, which
  runs no PTTS (install it as ``ParallelEpiSimdemics.prepare_day``);
* ``LoopLocationManager.location_phase`` — the load model charged one
  scalar ``static.evaluate`` + ``dynamic.evaluate`` pair per location,
  summed by ``compute +=`` from ``0.0``.  Its ``recv_visits`` only
  adapts the receiving entry: a scalar record delivers one bare row
  where a batch delivers an array.

A fourth piece is the location phase before the LMs shared one pass:

* ``PerOwnerLocationManager.location_phase`` — each LocationManager ran
  the exposure kernel over its own location mask (install it with
  ``share_location_phase`` a no-op; ``owned`` is the mask its
  constructor used to take), and evaluated the load model over its own
  locations (:func:`location_charge`, the ``ComputeCostModel`` method
  it called, before one evaluation over every location replaced it).

Two things are newer than the loops: the PMs write the LMs'
removed-visit mask, and the LMs hand the location phase their location
mask and that mask instead of the rows they received, sorted.

The one line that cannot be verbatim is the predictive balancer's feed:
the parent ``update``-d a dict that nothing cleared, so here each
location's pair count is written into the array and, with
``loop_prepare_day`` installed, never reset — the parent's stale view,
which ``test_visit_batches.py`` contrasts with production.
"""

from itertools import repeat

import numpy as np

from repro.charm.messages import INFECT_BYTES, VISIT_BYTES
from repro.core import day as day_steps
from repro.core.parallel import _LocationManager, _PersonManager


def location_charge(costs, events: np.ndarray, interactions: np.ndarray) -> float:
    """Virtual seconds of one LocationManager phase: the static model
    over each location's ``events`` plus the dynamic model over its
    ``interactions``, summed in array order."""
    if events.size == 0:
        return 0.0
    static = costs.location_static.evaluate(events)
    per = static + costs.location_dynamic.evaluate(events, interactions)
    return float(np.cumsum(per)[-1])


def loop_prepare_day(self, day: int) -> None:
    """Central start-of-day work: seeding, treatments, day context."""
    self.day_ctx, self._seeded_count = day_steps.open_day(self.state, self.scenario, day)
    self.day_transitions = 0
    self.removed = None  # newer than the loop: the LMs' removed-visit mask
    if self.checker is not None:
        self.checker.begin_day(day, self.health_state)


class LoopPersonManager(_PersonManager):
    def person_phase(self, day: int) -> None:
        sim = self.sim
        cost = sim.costs
        d = sim.scenario.disease
        changed = d.advance_day(
            sim.health_state, sim.days_remaining, sim.treatment, day,
            sim.rng_factory, subset=self.persons,
        )
        # the one line newer than the loop: the per-day transition count
        # every backend reports since the day was written once
        sim.day_transitions += int(changed.size)
        self.charge(
            cost.person_health_cost * self.persons.size
            + cost.transition_cost * changed.size
        )
        keep = sim.scenario.interventions.visit_mask(sim.day_ctx, self.rows)
        if not keep.all():  # newer than the loop: what the LMs read
            if sim.removed is None:
                sim.removed = np.zeros(sim.graph.n_visits, dtype=bool)
            sim.removed[self.rows] = ~keep
        rows = self.rows[keep]
        self.charge(cost.visit_compute_cost * rows.size)
        if sim.checker is not None:
            sim.checker.record_visits_sent(rows)
        lm_of = sim.distribution.location_chare
        dests = lm_of[sim.graph.visit_location[rows]]
        det = sim.visit_detector
        channel, lm_name = sim.name("visits"), sim.name("lm")
        for row, dst in zip(rows.tolist(), dests.tolist()):
            det.produce()
            self.send_via(channel, lm_name, dst, "recv_visits", row, VISIT_BYTES)
        self.sim.runtime.flush_channel(channel, self.pe)
        det.producer_done()


class LoopLocationManager(_LocationManager):
    def recv_visits(self, row: int) -> None:
        super().recv_visits(np.array([row], dtype=np.int64))

    def location_phase(self, day: int) -> None:
        sim = self.sim
        phase = day_steps.location_phase(
            sim.state, sim.scenario, day, sim.distribution.location_chare == self.index,
            sim.removed,
            kernel=sim.kernel, collect_stats=True,
        )
        if sim.checker is not None:
            sim.checker.record_infections(day, phase.infections)
        # Feed the predictive load balancer's application-specific view.
        for loc, v in phase.interactions.items():
            sim.last_interactions[loc] = v
        static = sim.costs.location_static
        dynamic = sim.costs.location_dynamic
        compute = 0.0
        for loc, events in phase.events.items():
            inter = phase.interactions.get(loc, 0)
            compute += float(static.evaluate(float(events))) + float(
                dynamic.evaluate(events, inter)
            )
        self.charge(compute)
        det = sim.infect_detector
        pm_of = sim.distribution.person_chare
        pm_name = sim.name("pm")
        # One infect message per infection, in emission order.
        for (person, _loc, minute), pm in zip(
            phase.records.tolist(), pm_of[phase.records[:, 0]].tolist()
        ):
            det.produce()
            self.send(pm_name, pm, "recv_infect", (person, minute), INFECT_BYTES)
        det.producer_done()


class PerOwnerLocationManager(_LocationManager):
    @property
    def owned(self) -> np.ndarray:
        return self.sim.distribution.location_chare == self.index

    def location_phase(self, day: int) -> None:
        sim = self.sim
        phase = day_steps.location_phase(
            sim.state, sim.scenario, day, self.owned, sim.removed, kernel=sim.kernel, collect_stats=True
        )
        if sim.checker is not None:
            sim.checker.record_infections(day, phase.infections)
        sim.records_by_day.setdefault(day, []).append(phase.records)
        # load-model inputs per location, in the events Counter's order
        n = len(phase.events)
        locs = np.fromiter(phase.events, np.int64, n)
        events = np.fromiter(phase.events.values(), np.float64, n)
        inter = np.fromiter(map(phase.interactions.get, phase.events, repeat(0)), np.int64, n)
        # Feed the predictive load balancer's application-specific view.
        sim.last_interactions[locs] = inter
        self.charge(location_charge(sim.costs, events, inter))
        det = sim.infect_detector
        pm_of = sim.distribution.person_chare
        pm_name = sim.name("pm")
        # One infect message per infection, in emission order.
        for (person, _loc, minute), pm in zip(
            phase.records.tolist(), pm_of[phase.records[:, 0]].tolist()
        ):
            det.produce()
            self.send(pm_name, pm, "recv_infect", (person, minute), INFECT_BYTES)
        det.producer_done()
