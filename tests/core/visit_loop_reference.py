"""Per-visit reference for the charm backend's person phase — a test oracle.

``LoopPersonManager.person_phase`` is the loop ``_PersonManager`` ran
before visits travelled as record batches, kept verbatim: one
``det.produce()`` and one scalar ``send_via`` per visit row.  It
*defines* what the batched send must reproduce exactly — phase times,
total virtual time, runtime statistics, the epidemic
(``test_visit_batches.py``); nothing under ``src/`` calls it.

``LoopLocationManager`` only adapts the receiving entry: a scalar record
delivers one bare row where a batch delivers an array.
"""

import numpy as np

from repro.charm.messages import VISIT_BYTES
from repro.core.parallel import _LocationManager, _PersonManager


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
