"""Bit-exactness of the forked backend against the sequential reference.

The whole point of the smp backend: same keyed RNG, same phase
ordering, therefore the *identical* epidemic — curve, every individual
infection event, and the final per-person state arrays — regardless of
how many real processes the population is split across.
"""

from __future__ import annotations

import pytest

from repro.core import Scenario, TransmissionModel
from repro.core.interventions import parse_intervention_script
from repro.core.simulator import SequentialSimulator
from repro.smp import SmpSimulator, heavy_tailed_graph
from repro.smp.layout import INFECT_RECORD, block_partition
from repro.spec import content_hash
from repro.synthpop import PopulationConfig, generate_population
from repro.validate.oracle import diff_runs


def assert_bitexact(make_scenario, workers: int, **smp_kwargs):
    reference = SequentialSimulator(make_scenario()).run()
    scenario = make_scenario()
    out = SmpSimulator(scenario, n_workers=workers, **smp_kwargs).run()
    divergence = diff_runs(scenario, reference, out.result, ordered=False)
    assert divergence is None, divergence.format()
    return reference, out


@pytest.fixture(scope="module")
def tiny_graph():
    return generate_population(PopulationConfig(n_persons=300), 21, name="smp-tiny")


@pytest.fixture(scope="module")
def heavy_graph():
    return heavy_tailed_graph(n_persons=1500, n_locations=200, seed=9)


def make_tiny(graph, **overrides):
    def factory():
        kwargs = dict(
            graph=graph, n_days=6, seed=2, initial_infections=8,
            transmission=TransmissionModel(2e-4),
        )
        kwargs.update(overrides)
        return Scenario(**kwargs)

    return factory


@pytest.mark.parametrize("workers", [1, 2])
def test_tiny_population(tiny_graph, workers):
    assert_bitexact(make_tiny(tiny_graph), workers)


@pytest.mark.slow
def test_tiny_population_four_workers(tiny_graph):
    assert_bitexact(make_tiny(tiny_graph), 4)


@pytest.mark.slow
@pytest.mark.parametrize("workers", [2, 4])
def test_heavy_tailed_population(heavy_graph, workers):
    # Zipf location popularity: one location absorbs a big share of
    # all visits, so the row traffic between workers is maximally
    # lopsided — the splitLoc-motivating regime.
    assert_bitexact(
        make_tiny(heavy_graph, transmission=TransmissionModel(3e-4)), workers
    )


def _digest(result) -> str:
    """The epidemic of a run, order-free within a day: curve, each day's
    infect records sorted, final health state."""
    return content_hash({
        "curve": [result.curve.new_infections, result.curve.prevalence],
        "infections": {day: sorted(map(tuple, rec.tolist()))
                       for day, rec in sorted(result.infection_log.items())},
        "final": result.final_health_state.tolist(),
    })


def test_a_worker_that_owns_no_location():
    """Four workers, three locations: ``block_partition`` leaves worker 3
    no location, so its location phase runs over an all-False mask.  It
    still crosses both barriers (the visit detector with zero records,
    the infect detector), and the run equals the sequential one."""
    graph = heavy_tailed_graph(n_persons=200, n_locations=3, seed=5)
    assert block_partition(graph.n_persons, graph.n_locations, 4).location_part.tolist() == [0, 1, 2]
    factory = make_tiny(graph, transmission=TransmissionModel(1e-4))
    reference = SequentialSimulator(factory()).run()
    scenario = factory()
    out = SmpSimulator(scenario, n_workers=4).run()
    assert diff_runs(scenario, reference, out.result, ordered=False) is None
    assert _digest(out.result) == _digest(reference)
    assert sum(reference.curve.new_infections) > 8  # it transmitted beyond the index cases


def test_tight_rings_still_exact(tiny_graph):
    # Force heavy backpressure: rings barely larger than one batch.
    # Correctness must not depend on ring capacity, only progress does.
    # Infect records are the only ring traffic (visit rows do not
    # travel), so the epidemic must send enough of them: one day's
    # records overflow a 64-word ring several times over.
    reference, _ = assert_bitexact(
        make_tiny(tiny_graph, transmission=TransmissionModel(3e-3)), 2, ring_capacity=64, batch=16
    )
    assert max(len(day) for day in reference.infection_log.values()) > 2 * 64 // INFECT_RECORD


SCRIPT = """
vaccinate coverage=0.3 day=1 ages=5-18
close_schools prevalence=0.02 duration=3
stay_home compliance=0.5
"""


@pytest.mark.parametrize("workers", [2])
def test_interventions_bitexact(tiny_graph, workers):
    # Treatments mutate centrally on the driver, triggers fire off
    # broadcast prevalence — the schedule state must evolve identically
    # in every forked copy for this to pass.  Trigger state lives in
    # the schedule, so each run parses a fresh one.
    def factory():
        return make_tiny(
            tiny_graph,
            interventions=parse_intervention_script(SCRIPT),
            transmission=TransmissionModel(4e-4),
        )()

    assert_bitexact(factory, workers)


def test_phase_times_cover_every_day(tiny_graph):
    out = SmpSimulator(make_tiny(tiny_graph)(), n_workers=2).run()
    assert [pt.day for pt in out.phase_times] == list(range(6))
    for pt in out.phase_times:
        assert 0.0 <= pt.person_phase and 0.0 <= pt.location_phase
        assert pt.total >= pt.person_phase + pt.location_phase
