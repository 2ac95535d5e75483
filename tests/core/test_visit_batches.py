"""The charm backend's batched person phase against its per-visit oracle.

Production sends each PersonManager's visits with one ``send_many_via``;
``visit_loop_reference`` keeps the per-visit ``send_via`` loop it
replaced.  Virtual time is the product here, so everything modelled is
pinned exactly equal across delivery modes, sync protocols and buffer
sizes small enough that buffers fill and flush mid-phase.
"""

import pytest

from repro.charm.machine import Machine, MachineConfig
from repro.core import Scenario, SequentialSimulator, TransmissionModel
from repro.core import parallel
from repro.core.interventions import InterventionSchedule, SchoolClosure, WorkClosure
from repro.core.parallel import Distribution, ParallelEpiSimdemics
from repro.partition import round_robin_partition

from .visit_loop_reference import LoopLocationManager, LoopPersonManager

MACHINE = MachineConfig(n_nodes=3, cores_per_node=4, smp=True, processes_per_node=1)


def _closures():
    return InterventionSchedule(
        [SchoolClosure(prevalence=0.01, duration=3), WorkClosure(prevalence=0.03, duration=2)]
    )


def _scenario(graph):
    return Scenario(
        graph=graph, n_days=6, seed=9, initial_infections=8,
        transmission=TransmissionModel(3e-4), interventions=_closures(),
    )


def _simulation(graph, chares_per_pe=1, **kwargs):
    sc = _scenario(graph)
    m = Machine(MACHINE)
    dist = Distribution.from_partition(
        round_robin_partition(graph, m.n_pes * chares_per_pe), m
    )
    return ParallelEpiSimdemics(sc, MACHINE, dist, validate=True, **kwargs)


def _modelled(sim):
    out = sim.run()
    return {
        "phase_times": out.phase_times,
        "total_virtual_time": out.total_virtual_time,
        "runtime_stats": out.runtime_stats,
        "curve": out.result.curve,
        "final_histogram": out.result.final_histogram,
        "days": out.result.days,  # all five fields, ``transitions`` included
        "chare_costs": sim.runtime.chare_costs,
        "lb": (sim.lb_steps, sim.lb_moves),
    }


def _assert_matches_oracle(graph, monkeypatch, **kwargs):
    production = _modelled(_simulation(graph, **kwargs))
    with monkeypatch.context() as patch:
        patch.setattr(parallel, "_PersonManager", LoopPersonManager)
        patch.setattr(parallel, "_LocationManager", LoopLocationManager)
        oracle = _modelled(_simulation(graph, **kwargs))
    for key, expected in oracle.items():
        assert production[key] == expected, key
    assert len(production["phase_times"]) == 6
    assert sum(d.transitions for d in production["days"]) > 0


@pytest.mark.parametrize("aggregation_bytes", [64, 256, 65536])
@pytest.mark.parametrize("sync", ["cd", "qd"])
@pytest.mark.parametrize("delivery", ["aggregated", "direct", "tram"])
def test_batched_person_phase_matches_the_visit_loop(
    tiny_graph, monkeypatch, delivery, sync, aggregation_bytes
):
    _assert_matches_oracle(
        tiny_graph, monkeypatch,
        delivery=delivery, sync=sync, aggregation_bytes=aggregation_bytes,
    )


@pytest.mark.parametrize("delivery", ["aggregated", "tram"])
def test_overdecomposed_with_load_balancing(tiny_graph, monkeypatch, delivery):
    """Several PMs and LMs per PE share buffers and batches; the LB's
    measured chare costs (hence its moves) must not notice batching."""
    _assert_matches_oracle(
        tiny_graph, monkeypatch,
        chares_per_pe=3, lb_period=2, delivery=delivery, aggregation_bytes=256,
    )


def test_visits_made_matches_the_sequential_simulator(tiny_graph):
    """``DayResult.visits_made`` is the day's post-intervention visit
    count on every backend (it used to read 0 here)."""
    seq = SequentialSimulator(_scenario(tiny_graph)).run()
    par = _simulation(tiny_graph, chares_per_pe=2).run()
    visits = [d.visits_made for d in par.result.days]
    assert visits == [d.visits_made for d in seq.days]
    assert min(visits) < max(visits) == tiny_graph.n_visits  # closures did bite
