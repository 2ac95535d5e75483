"""Scenario reuse regression: one Scenario object, many identical runs.

Intervention and component objects hold mutable state (fired triggers,
quarantine rosters, wire blobs).  Every backend calls
``InterventionSchedule.reset()`` at run start, so reusing a single
Scenario across runs — the natural thing to write — must reproduce the
same epidemic each time.  This was a silent footgun before reset()
existed: the second run saw day-one triggers already fired.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.interventions import (
    InterventionSchedule,
    Vaccination,
    parse_intervention_script,
)
from repro.core.scenario import Scenario
from repro.core.simulator import SequentialSimulator
from repro.core.transmission import TransmissionModel
from repro.scenarios import build_scenario, names
from repro.smp.backend import SmpSimulator
from repro.spec import PopulationSpec


@pytest.fixture(scope="module")
def graph():
    return PopulationSpec(n_persons=250, seed=0, name="reuse").build()


def seq_fingerprint(scenario):
    sim = SequentialSimulator(scenario)
    result = sim.run()
    return (
        list(result.curve.new_infections),
        sim.health_state.copy(),
        sim.days_remaining.copy(),
        sim.treatment.copy(),
    )


def assert_identical(a, b):
    assert a[0] == b[0]
    for x, y in zip(a[1:], b[1:]):
        assert np.array_equal(x, y)


def test_triggered_intervention_scenario_is_reusable(graph):
    sc = Scenario(
        graph=graph,
        n_days=8,
        seed=3,
        initial_infections=8,
        transmission=TransmissionModel(4e-4),
        interventions=parse_intervention_script(
            "vaccinate coverage=0.5 day=2\nclose_schools prevalence=0.01 duration=3"
        ),
    )
    assert_identical(seq_fingerprint(sc), seq_fingerprint(sc))


@pytest.mark.parametrize("name", names())
def test_every_registered_scenario_is_reusable(graph, name):
    sc = build_scenario(name, graph, n_days=6, seed=0, transmissibility=3e-4)
    assert_identical(seq_fingerprint(sc), seq_fingerprint(sc))


def test_reuse_across_backends(graph):
    """The same object run on seq then smp then seq stays bit-stable."""
    sc = build_scenario("contact-tracing", graph, n_days=6, seed=0,
                        transmissibility=3e-4)
    first = seq_fingerprint(sc)
    out = SmpSimulator(sc, n_workers=2).run()
    assert list(out.result.curve.new_infections) == first[0]
    assert np.array_equal(out.result.final_health_state, first[1])
    assert_identical(seq_fingerprint(sc), first)


def test_reset_clears_fired_triggers():
    sched = InterventionSchedule([Vaccination(coverage=0.4, day=1)])
    (vax,) = sched.interventions
    vax.trigger.fired_on = 1
    sched.reset()
    assert vax.trigger.fired_on is None
