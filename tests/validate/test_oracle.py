"""The differential oracle itself, plus the hypothesis-driven
equivalence property over adversarial scenarios.

The property test is the subsystem's reason to exist: for *any* small
scenario the strategies can dream up (heavy-tailed locations, zero
visits, one person, single sublocations), the parallel runtime must
reproduce the sequential reference exactly.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings

from repro.charm.machine import Machine, MachineConfig
from repro.core.metrics import EpiCurve
from repro.core.parallel import Distribution, ParallelEpiSimdemics
from repro.core.simulator import SequentialSimulator, SimulationResult
from repro.partition import round_robin_partition
from repro.util.rng import RngFactory
from repro.validate.oracle import (
    DELIVERY_MODES,
    DISTRIBUTIONS,
    SYNC_MODES,
    CellResult,
    Divergence,
    OracleReport,
    diff_runs,
    run_matrix,
)
from tests.strategies import scenarios

SMALL_MACHINE = MachineConfig(n_nodes=2, cores_per_node=4, smp=True, processes_per_node=1)


class TestMatrix:
    def test_full_matrix_on_tiny_graph(self, tiny_graph, capsys):
        report = run_matrix(tiny_graph, n_days=3, seed=3, initial_infections=6)
        assert len(report.cells) == len(DISTRIBUTIONS) * len(SYNC_MODES) * len(DELIVERY_MODES)
        assert report.all_equal, report.format()
        assert report.total_checks > 0
        assert "bit-identical" in report.format()
        # each cell's line is streamed once, and the summary does not repeat it
        streamed = capsys.readouterr().out
        for cell in report.cells:
            assert streamed.count(cell.format()) == 1
            assert cell.label not in report.format()

    def test_report_formats_divergence(self):
        d = Divergence(kind="events", day=2, location=7, person=13, rng_key=0xABC,
                       detail="sequential-only infection event")
        text = d.format()
        assert "day 2" in text and "location 7" in text and "person 13" in text
        assert "0x0000000000000abc" in text
        report = OracleReport("t", [CellResult("rr×cd×tram", False, d)], n_persons=5, n_days=3)
        summary = report.format()
        assert "rr×cd×tram: first divergence: events, day 2" in summary
        assert summary.endswith("EQUIVALENCE BROKEN — see divergences above")


class TestSequentialReference:
    def test_reference_matches_plain_run(self, tiny_scenario):
        sim = SequentialSimulator(tiny_scenario)
        result = sim.run()
        assert sorted(result.infection_log) == list(range(tiny_scenario.n_days))
        # the final arrays are the simulator's own, not copies
        assert result.final_health_state is sim.health_state
        assert result.final_days_remaining is sim.days_remaining
        # Unique persons hit per day total the curve (minus index cases);
        # one person can draw events at several locations on one day.
        seeded = tiny_scenario.initial_infections
        unique_hits = sum(len(np.unique(rows[:, 0])) for rows in result.infection_log.values())
        assert unique_hits == result.total_infections - seeded
        assert diff_runs(tiny_scenario, result, SequentialSimulator(tiny_scenario).run(),
                         ordered=True) is None


def _record(new, prevalence, log=None, n_persons=4) -> SimulationResult:
    curve = EpiCurve()
    for n, p in zip(new, prevalence):
        curve.record_day(n, p)
    return SimulationResult(
        curve=curve, final_histogram={}, infection_log=log or {},
        final_health_state=np.zeros(n_persons, dtype=np.int64),
        final_days_remaining=np.zeros(n_persons, dtype=np.int64),
    )


class TestDiffRuns:
    """Hand-built run records: each case passed the previous diff."""

    def test_prevalence_differing_in_the_last_bit_diverges(self, tiny_scenario):
        ref = _record([4, 2], [0.1, 0.2])
        got = _record([4, 2], [0.1, float(np.nextafter(0.2, 1.0))])
        d = diff_runs(tiny_scenario, ref, got, ordered=False)
        assert d is not None and (d.kind, d.day) == ("curve", 1)
        assert diff_runs(tiny_scenario, ref, _record([4, 2], [0.1, 0.2]), ordered=False) is None

    def test_run_curve_longer_than_the_reference_diverges(self, tiny_scenario):
        ref = _record([4, 2], [0.1, 0.2])
        got = _record([4, 2, 0], [0.1, 0.2, 0.2])
        for a, b in ((ref, got), (got, ref)):
            d = diff_runs(tiny_scenario, a, b, ordered=False)
            assert d is not None and (d.kind, d.day) == ("curve", 2)

    def test_minute_only_mismatch_diverges_across_backends(self, tiny_scenario):
        rows = lambda *r: np.array(r, dtype=np.int64).reshape(-1, 3)  # noqa: E731
        ref = _record([1], [0.25], {0: rows((5, 7, 300), (2, 1, 60))})
        got = _record([1], [0.25], {0: rows((2, 1, 60), (5, 7, 301))})
        d = diff_runs(tiny_scenario, ref, got, ordered=False)
        assert d is not None
        assert (d.kind, d.day, d.location, d.person) == ("events", 0, 7, 5)
        assert d.rng_key == tiny_scenario.rng_factory.seed(RngFactory.LOCATION, 0, 7, 5)
        # the same rows in another order: equal as sets, not as sequences
        swapped = _record([1], [0.25], {0: rows((2, 1, 60), (5, 7, 300))})
        assert diff_runs(tiny_scenario, ref, swapped, ordered=False) is None
        d = diff_runs(tiny_scenario, ref, swapped, ordered=True)
        assert d is not None and d.kind == "events" and "order" in d.detail

    def test_final_state_difference_names_the_person(self, tiny_scenario):
        ref, got = _record([1], [0.25]), _record([1], [0.25])
        got.final_days_remaining[3] = 2
        d = diff_runs(tiny_scenario, ref, got, ordered=True)
        assert (d.kind, d.person) == ("final-state", 3) and "dwell timer" in d.detail


class TestEquivalenceProperty:
    """Sequential == parallel for arbitrary adversarial scenarios."""

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(scenarios(max_persons=20, max_days=4))
    def test_parallel_reproduces_sequential(self, scenario):
        machine = Machine(SMALL_MACHINE)
        seq = SequentialSimulator(scenario).run()
        dist = Distribution.from_partition(
            round_robin_partition(scenario.graph, machine.n_pes), machine
        )
        sim = ParallelEpiSimdemics(
            scenario, SMALL_MACHINE, dist, validate=True
        )
        got = sim.run().result
        divergence = diff_runs(scenario, seq, got, ordered=False)
        assert divergence is None, divergence.format()
        assert sim.checker is not None and sim.checker.checks_passed > 0
