"""The one day in ``core/day.py`` against the loop it replaced, then every
backend against the sequential simulator.

``day_loop_reference.ReferenceDayLoop`` is the previous sequential day
loop, verbatim.  The first test steps it beside ``SequentialSimulator``
and requires every ``DayResult`` field, the day's infect records (values
*and* order) and the four final state arrays to be equal — the only
check that can see a mistake *inside* the shared phase functions, since
the cross-backend matrices all run them.  The second requires the charm
backend (``gp`` k=4 + splitLoc, invariant checks on) and two forked smp
workers to report the sequential simulator's ``DayResult`` list — all
five fields, ``transitions`` included (charm used to report 0).

Matrix: plain influenza, a prevalence-triggered intervention script and
every registered scenario, on the ``flat`` and ``compiled`` kernels.
"""

import numpy as np
import pytest

from repro.charm.machine import MachineConfig
from repro.core import Scenario, SequentialSimulator, TransmissionModel, ckernel
from repro.core.interventions import parse_intervention_script
from repro.core.parallel import Distribution, ParallelEpiSimdemics
from repro.scenarios import registry
from repro.smp import SmpSimulator
from repro.spec import PartitionSpec, PopulationSpec

from .day_loop_reference import ReferenceDayLoop

N_DAYS = 7
INDEX_CASES = 12
MACHINE = MachineConfig(n_nodes=1, cores_per_node=4, smp=False)

SCRIPT = """
vaccinate coverage=0.3 day=1 ages=5-18
close_schools prevalence=0.02 duration=3
stay_home compliance=0.5
"""

CONFIGS = ["influenza", "script"] + registry.names()

kernels = pytest.mark.parametrize(
    "kernel",
    [
        "flat",
        pytest.param(
            "compiled",
            marks=pytest.mark.skipif(
                not ckernel.available(), reason=f"no compiled kernel: {ckernel.build_error()}"
            ),
        ),
    ],
)


@pytest.fixture(scope="module")
def split_graph_and_partition():
    """splitLoc replaces the graph, so every backend runs the split one."""
    return PartitionSpec("gp", k=4, split=True).build(
        PopulationSpec(n_persons=600, seed=3, name="one-day").build()
    )


def _scenario(graph, config) -> Scenario:
    """A fresh scenario per run: schedules hold trigger state."""
    if config in registry.names():
        return registry.build_scenario(
            config, graph, n_days=N_DAYS, seed=7,
            initial_infections=INDEX_CASES, transmissibility=3e-4,
        )
    kwargs = {}
    if config == "script":
        kwargs["interventions"] = parse_intervention_script(SCRIPT)
    return Scenario(
        graph=graph, n_days=N_DAYS, seed=7, initial_infections=INDEX_CASES,
        transmission=TransmissionModel(3e-4), **kwargs,
    )


@kernels
@pytest.mark.parametrize("config", CONFIGS)
def test_sequential_day_equals_the_reference_loop(split_graph_and_partition, config, kernel):
    graph, _ = split_graph_and_partition
    ref = ReferenceDayLoop(_scenario(graph, config), kernel=kernel)
    sim = SequentialSimulator(_scenario(graph, config), kernel=kernel)
    days = []
    for _ in range(N_DAYS):
        expected, expected_phase = ref._step_day()
        got, phase = sim.step_day()
        assert got == expected
        assert phase.records.dtype == np.int64
        assert phase.records.tolist() == expected_phase.records.tolist()
        days.append(got)
    for name, expected in [
        ("health_state", ref.health_state),
        ("days_remaining", ref.days_remaining),
        ("treatment", ref.treatment),
        ("ever_infected", ref._ever_infected),
    ]:
        np.testing.assert_array_equal(getattr(sim.state, name), expected, err_msg=name)
    # the comparison saw an epidemic, not seven idle days
    assert sum(d.new_infections for d in days) > INDEX_CASES
    assert sum(d.transitions for d in days) > 0
    if config == "script":
        assert min(d.visits_made for d in days) < graph.n_visits  # the closure did bite


@kernels
@pytest.mark.parametrize("config", CONFIGS)
def test_every_backend_reports_the_sequential_day_results(
    split_graph_and_partition, config, kernel
):
    graph, partition = split_graph_and_partition
    seq = SequentialSimulator(_scenario(graph, config), kernel=kernel).run()
    assert sum(d.transitions for d in seq.days) > 0

    charm = ParallelEpiSimdemics(
        _scenario(graph, config), MACHINE, Distribution.from_partition(partition, MACHINE),
        kernel=kernel, validate=True,
    )
    assert charm.run().result.days == seq.days
    assert charm.checker.checks_passed > 0

    smp = SmpSimulator(_scenario(graph, config), n_workers=2, kernel=kernel).run()
    assert smp.result.days == seq.days
