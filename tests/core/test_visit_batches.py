"""The charm backend's vectorised bookkeeping against its per-object oracle.

Production sends each PersonManager's visits with one ``send_many_via``,
advances the PTTS once a day for everyone in ``prepare_day`` and charges
each LocationManager's load model as one array evaluation;
``visit_loop_reference`` keeps the per-visit ``send_via`` loop, the
per-PM ``advance_day`` with its ``prepare_day`` and the per-location
load-model loop they replaced.  Virtual time is the product here, so
everything modelled is pinned exactly equal across delivery modes, sync
protocols, buffer sizes small enough that buffers fill and flush
mid-phase, measured load balancing and the ladder's gp + splitLoc shape.

The predictive balancer is left out of that matrix on purpose: it used
to read interactions no day ever cleared, and now reads the last day's
only (its own test below).

The LocationManagers share one location pass per day
(``share_location_phase``) and each charges and sends its slice;
``PerOwnerLocationManager`` keeps the per-LM call it replaced, and the
second matrix pins production to it — the infection log in LM order
included — with the predictive balancer in.
"""

from collections import Counter

import numpy as np
import pytest

from repro.charm.machine import Machine, MachineConfig
from repro.core import Scenario, SequentialSimulator, TransmissionModel
from repro.core import day as day_steps
from repro.core import parallel
from repro.core.interventions import InterventionSchedule, SchoolClosure, WorkClosure
from repro.core.parallel import Distribution, ParallelEnsemble, ParallelEpiSimdemics
from repro.partition import round_robin_partition
from repro.spec import PartitionSpec, PopulationSpec, RunSpec, RuntimeSpec

from . import exposure_reference
from .exposure_reference import production_kernel
from .visit_loop_reference import (
    LoopLocationManager,
    LoopPersonManager,
    PerOwnerLocationManager,
    loop_prepare_day,
)

MACHINE = MachineConfig(n_nodes=3, cores_per_node=4, smp=True, processes_per_node=1)


def _closures():
    return InterventionSchedule(
        [SchoolClosure(prevalence=0.01, duration=3), WorkClosure(prevalence=0.03, duration=2)]
    )


def _scenario(graph, seed=9):
    return Scenario(
        graph=graph, n_days=6, seed=seed, initial_infections=8,
        transmission=TransmissionModel(3e-4), interventions=_closures(),
    )


def _simulation(graph, chares_per_pe=1, **kwargs):
    sc = _scenario(graph)
    m = Machine(MACHINE)
    dist = Distribution.from_partition(
        round_robin_partition(graph, m.n_pes * chares_per_pe), m
    )
    return ParallelEpiSimdemics(sc, MACHINE, dist, validate=True, **kwargs)


def _modelled(sim, out=None):
    out = sim.run() if out is None else out
    return {
        "phase_times": out.phase_times,
        "total_virtual_time": out.total_virtual_time,
        "runtime_stats": out.runtime_stats,
        "curve": out.result.curve,
        "final_histogram": out.result.final_histogram,
        "days": out.result.days,  # all five fields, ``transitions`` included
        # each LM's infect records, in the order the LMs ran
        "infection_log": {d: r.tolist() for d, r in out.result.infection_log.items()},
        "chare_costs": sim.runtime.chare_costs,
        "lb": (sim.lb_steps, sim.lb_moves),
    }


def _no_shared_pass(self, day):
    """The per-LM reference runs its own calls: no shared pass."""


def _install_reference(patch):
    patch.setattr(parallel, "_PersonManager", LoopPersonManager)
    patch.setattr(parallel, "_LocationManager", LoopLocationManager)
    patch.setattr(ParallelEpiSimdemics, "prepare_day", loop_prepare_day)
    patch.setattr(ParallelEpiSimdemics, "share_location_phase", _no_shared_pass)


def _install_per_owner(patch):
    patch.setattr(parallel, "_LocationManager", PerOwnerLocationManager)
    patch.setattr(ParallelEpiSimdemics, "share_location_phase", _no_shared_pass)


def _assert_matches_oracle(build, monkeypatch, n_days=6, install=_install_reference):
    production = _modelled(build())
    with monkeypatch.context() as patch:
        install(patch)
        oracle = _modelled(build())
    if install is _install_reference:  # the loops predate the infection log
        del oracle["infection_log"]
    for key, expected in oracle.items():
        assert production[key] == expected, key
    assert len(production["phase_times"]) == n_days
    assert sum(d.transitions for d in production["days"]) > 0
    assert sum(len(r) for r in production["infection_log"].values()) > 0


@pytest.mark.parametrize("aggregation_bytes", [64, 256, 65536])
@pytest.mark.parametrize("sync", ["cd", "qd"])
@pytest.mark.parametrize("delivery", ["aggregated", "direct", "tram"])
def test_batched_person_phase_matches_the_visit_loop(
    tiny_graph, monkeypatch, delivery, sync, aggregation_bytes
):
    _assert_matches_oracle(
        lambda: _simulation(
            tiny_graph, delivery=delivery, sync=sync, aggregation_bytes=aggregation_bytes
        ),
        monkeypatch,
    )


@pytest.mark.parametrize("delivery", ["aggregated", "tram"])
def test_overdecomposed_with_load_balancing(tiny_graph, monkeypatch, delivery):
    """Several PMs and LMs per PE share buffers and batches; the LB's
    measured chare costs (hence its moves) must not notice batching,
    the central PTTS pass or the vectorised load model."""
    _assert_matches_oracle(
        lambda: _simulation(
            tiny_graph, chares_per_pe=3, lb_period=2, delivery=delivery, aggregation_bytes=256
        ),
        monkeypatch,
    )


def test_overdecomposed_with_refine_load_balancing(tiny_graph, monkeypatch):
    _assert_matches_oracle(
        lambda: _simulation(tiny_graph, chares_per_pe=3, lb_period=2, lb_strategy="refine"),
        monkeypatch,
    )


@pytest.fixture(scope="module")
def ladder_shape():
    """The ladder's ``charm_gp_split`` spec at 2K persons: gp k=16 +
    splitLoc, 16 workers, 1% index cases, eight days."""
    spec = RunSpec(
        population=PopulationSpec(kind="generated", n_persons=2000, seed=20140519),
        partition=PartitionSpec("gp", k=16, split=True),
        n_days=8, seed=777, initial_infections=20,
        runtime=RuntimeSpec(backend="charm", workers=16),
    )
    graph, part = spec.resolved_partition().build(spec.population.build())
    return spec, graph, part


def test_gp_split_ladder_shape_matches_the_loops(ladder_shape, monkeypatch):
    spec, graph, part = ladder_shape
    _assert_matches_oracle(
        lambda: ParallelEpiSimdemics.from_spec(spec, graph=graph, partition=part),
        monkeypatch, n_days=8,
    )


@pytest.mark.parametrize("sync", ["cd", "qd"])
@pytest.mark.parametrize("delivery", ["aggregated", "direct", "tram"])
def test_shared_location_pass_matches_the_per_owner_calls(
    tiny_graph, monkeypatch, delivery, sync
):
    """The closures remove visits (the ``removed`` mask) on some days."""
    removed_days = []
    share = ParallelEpiSimdemics.share_location_phase

    def spy(self, day):
        removed_days.append(self.removed is not None)
        share(self, day)

    monkeypatch.setattr(ParallelEpiSimdemics, "share_location_phase", spy)
    _assert_matches_oracle(
        lambda: _simulation(tiny_graph, delivery=delivery, sync=sync, aggregation_bytes=256),
        monkeypatch, install=_install_per_owner,
    )
    assert any(removed_days) and not all(removed_days)


@pytest.mark.parametrize("kernel", ["flat", "grouped"])
def test_shared_location_pass_under_the_numpy_kernels(tiny_graph, monkeypatch, kernel):
    """Production's shared pass against per-LM calls of the linear
    reference filter on ``kernel`` — for ``grouped``, which only the
    references have, production runs ``flat``."""

    def install(patch):
        _install_per_owner(patch)
        patch.setattr(day_steps, "compute_infections", exposure_reference.pinned(
            exposure_reference.compute_infections_linear, kernel))

    _assert_matches_oracle(
        lambda: _simulation(tiny_graph, kernel=production_kernel(kernel)), monkeypatch,
        install=install,
    )


@pytest.mark.parametrize("lb_strategy", ["greedy", "predictive"])
def test_shared_location_pass_overdecomposed_with_load_balancing(
    tiny_graph, monkeypatch, lb_strategy
):
    """Three LMs per PE share a PE's slices; the LB reads the chare
    costs (greedy) or the interactions the pass fed it (predictive)."""
    _assert_matches_oracle(
        lambda: _simulation(tiny_graph, chares_per_pe=3, lb_period=2, lb_strategy=lb_strategy),
        monkeypatch, install=_install_per_owner,
    )


def test_shared_location_pass_on_the_ladder_shape(ladder_shape, monkeypatch):
    spec, graph, part = ladder_shape
    _assert_matches_oracle(
        lambda: ParallelEpiSimdemics.from_spec(spec, graph=graph, partition=part),
        monkeypatch, n_days=8, install=_install_per_owner,
    )


def test_shared_location_pass_in_a_two_replica_ensemble(tiny_graph, monkeypatch):
    """Each replica's driver runs its own pass over its own state."""
    m = Machine(MACHINE)
    dist = Distribution.from_partition(round_robin_partition(tiny_graph, 2 * m.n_pes), m)

    def run():
        scenarios = [_scenario(tiny_graph), _scenario(tiny_graph, seed=10)]
        ens = ParallelEnsemble(scenarios, MACHINE, [dist, dist])
        return [_modelled(sim, out) for sim, out in zip(ens.sims, ens.run())]

    production = run()
    with monkeypatch.context() as patch:
        _install_per_owner(patch)
        oracle = run()
    assert production == oracle
    assert production[0]["infection_log"] != production[1]["infection_log"]


def _lb_inputs(sim, monkeypatch):
    """Run ``sim``; return each day's interactions (summed over LMs) and,
    per LB step, the interaction array the predictor read."""
    daily: dict[int, Counter] = {}
    read: dict[int, np.ndarray] = {}
    location_phase = day_steps.location_phase

    def spy_phase(state, scenario, day, *args, **kwargs):
        phase = location_phase(state, scenario, day, *args, **kwargs)
        daily.setdefault(day, Counter()).update(phase.interactions)
        return phase

    rebalance = sim.maybe_rebalance

    def spy_rebalance(day):
        read[day] = sim.last_interactions.copy()
        return rebalance(day)

    sim.maybe_rebalance = spy_rebalance
    with monkeypatch.context() as patch:
        patch.setattr(day_steps, "location_phase", spy_phase)
        sim.run()
    return daily, read


def test_predictive_balancer_reads_only_the_last_day(tiny_graph, monkeypatch):
    """§VII's predictor feeds the dynamic model "the interactions just
    observed": a location with pairs on day d-1 and none on day d
    contributes ``dynamic == 0`` at the LB step after day d.  The parent
    kept its day d-1 count (the reference still does)."""

    def build():
        return _simulation(tiny_graph, chares_per_pe=3, lb_period=1, lb_strategy="predictive")

    sim = build()
    daily, read = _lb_inputs(sim, monkeypatch)
    with monkeypatch.context() as patch:
        _install_reference(patch)
        _, stale_read = _lb_inputs(build(), monkeypatch)

    events = 2.0 * tiny_graph.location_visit_counts
    went_quiet = 0
    for step, inter in read.items():  # the step after day ``step - 1``
        expected = np.zeros(tiny_graph.n_locations, dtype=np.int64)
        for loc, n in daily[step - 1].items():
            expected[loc] = n
        assert np.array_equal(inter, expected), step
        dynamic = sim.costs.location_dynamic.evaluate(events, inter)
        for loc, n in daily.get(step - 2, {}).items():
            if n > 0 and daily[step - 1][loc] == 0:
                went_quiet += 1
                assert dynamic[loc] == 0.0
                assert stale_read[step][loc] > 0
    assert went_quiet > 0  # the case in point happened


def test_visits_made_matches_the_sequential_simulator(tiny_graph):
    """``DayResult.visits_made`` is the day's post-intervention visit
    count on every backend (it used to read 0 here)."""
    seq = SequentialSimulator(_scenario(tiny_graph)).run()
    par = _simulation(tiny_graph, chares_per_pe=2).run()
    visits = [d.visits_made for d in par.result.days]
    assert visits == [d.visits_made for d in seq.days]
    assert min(visits) < max(visits) == tiny_graph.n_visits  # closures did bite
