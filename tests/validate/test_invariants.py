"""Mutation-style negative tests: every invariant check must actually
fire when its invariant is broken.

Two styles of corruption:

* direct checker-method corruption — feed the checker a broken event
  stream (a lost row, a duplicate key, a teleporting person) and assert
  the matching :class:`InvariantViolation`;
* end-to-end monkeypatch mutation — break the *simulator* (duplicate a
  partition, corrupt the delivered rows) and assert a full run aborts.

A genuinely dropped message would stall the completion detector (the
run livelocks rather than finishing wrong), so the lost/duplicate
delivery cases corrupt the checker's view directly.
"""

import numpy as np
import pytest

from repro.charm.machine import Machine, MachineConfig
from repro.core import Scenario, TransmissionModel
from repro.core.disease import influenza_model
from repro.core.exposure import InfectionEvent
from repro.core.metrics import EpiCurve
from repro.core.parallel import Distribution, ParallelEpiSimdemics, _LocationManager
from repro.partition import round_robin_partition
from repro.validate.invariants import InvariantChecker, InvariantViolation

SMALL_MACHINE = MachineConfig(n_nodes=2, cores_per_node=4, smp=True, processes_per_node=1)


def _scenario(graph, n_days=4):
    return Scenario(
        graph=graph,
        n_days=n_days,
        seed=3,
        initial_infections=6,
        transmission=TransmissionModel(2e-4),
    )


@pytest.fixture()
def checker(tiny_graph):
    sc = _scenario(tiny_graph)
    m = Machine(SMALL_MACHINE)
    dist = Distribution.from_partition(
        round_robin_partition(tiny_graph, m.n_pes), m
    )
    return InvariantChecker(tiny_graph, sc.disease, dist)


def _partition_lists(checker):
    """Correct pm_persons / pm_rows / lm_locations for the distribution."""
    g = checker.graph
    d = checker.distribution
    n_pm = int(d.person_chare.max()) + 1
    n_lm = int(d.location_chare.max()) + 1
    pm_persons = [np.flatnonzero(d.person_chare == i) for i in range(n_pm)]
    pm_rows = [
        np.flatnonzero(np.isin(g.visit_person, pm_persons[i])) for i in range(n_pm)
    ]
    lm_locations = [np.flatnonzero(d.location_chare == i) for i in range(n_lm)]
    return pm_persons, pm_rows, lm_locations


class TestPartitionConservation:
    def test_correct_partition_passes(self, checker):
        checker.check_partition(*_partition_lists(checker))
        assert checker.checks_passed == 3

    def test_double_owned_person_fires(self, checker):
        pm_persons, pm_rows, lm_locations = _partition_lists(checker)
        pm_persons[1] = np.append(pm_persons[1], pm_persons[0][0])
        with pytest.raises(InvariantViolation, match="person conservation"):
            checker.check_partition(pm_persons, pm_rows, lm_locations)

    def test_orphaned_visit_row_fires(self, checker):
        pm_persons, pm_rows, lm_locations = _partition_lists(checker)
        pm_rows[0] = pm_rows[0][1:]
        with pytest.raises(InvariantViolation, match="visit-row conservation"):
            checker.check_partition(pm_persons, pm_rows, lm_locations)

    def test_double_owned_location_fires(self, checker):
        pm_persons, pm_rows, lm_locations = _partition_lists(checker)
        lm_locations[0] = np.append(lm_locations[0], lm_locations[1][0])
        with pytest.raises(InvariantViolation, match="location conservation"):
            checker.check_partition(pm_persons, pm_rows, lm_locations)


class TestVisitDelivery:
    def _open_day(self, checker):
        g = checker.graph
        checker.begin_day(0, np.zeros(g.n_persons, dtype=np.int64))

    @staticmethod
    def _owner(checker, row):
        return int(checker.distribution.location_chare[checker.graph.visit_location[row]])

    def _deliver(self, checker, rows):
        """Deliver ``rows`` correctly: one batch per owning LM."""
        rows = np.asarray(rows, dtype=np.int64)
        owners = np.array([self._owner(checker, r) for r in rows])
        for lm in np.unique(owners):
            checker.record_visits_received(rows[owners == lm], int(lm))

    def test_lost_visit_fires(self, checker):
        self._open_day(checker)
        checker.record_visits_sent(np.array([0, 1, 2]))
        self._deliver(checker, [0, 1])
        with pytest.raises(InvariantViolation, match="row 2 was sent but 1 copy never arrived"):
            checker.close_visit_phase()

    def test_duplicate_visit_fires(self, checker):
        self._open_day(checker)
        checker.record_visits_sent(np.array([0, 1]))
        self._deliver(checker, [0, 1])
        self._deliver(checker, [1])
        with pytest.raises(InvariantViolation, match="row 1 was delivered 1 more time"):
            checker.close_visit_phase()

    def test_duplicate_inside_one_batch_fires(self, checker):
        self._open_day(checker)
        checker.record_visits_sent(np.array([0]))
        checker.record_visits_received(np.array([0, 0]), self._owner(checker, 0))
        with pytest.raises(InvariantViolation, match="row 0 was delivered 1 more time"):
            checker.close_visit_phase()

    def test_late_delivery_after_close_fires(self, checker):
        self._open_day(checker)
        checker.close_visit_phase()
        with pytest.raises(InvariantViolation, match="closure soundness broken: visit row 0 "):
            checker.record_visits_received(np.array([0]), self._owner(checker, 0))

    def test_misrouted_visit_fires(self, checker):
        self._open_day(checker)
        with pytest.raises(InvariantViolation, match="misrouted visit: row 0 "):
            checker.record_visits_received(np.array([0]), self._owner(checker, 0) + 1)

    def test_row_misrouted_inside_batch_fires(self, checker):
        """One stray row in an otherwise correct batch is named."""
        self._open_day(checker)
        g, lm_of = checker.graph, checker.distribution.location_chare
        owners = lm_of[g.visit_location]
        lm = int(owners[0])
        mine = np.flatnonzero(owners == lm)[:5]
        stray = int(np.flatnonzero(owners != lm)[0])
        batch = np.insert(mine, 3, stray)
        with pytest.raises(InvariantViolation, match=f"misrouted visit: row {stray} "):
            checker.record_visits_received(batch, lm)

    def test_records_left_in_a_buffer_fire(self, checker):
        """A batch whose tail never filled its buffer and was never
        flushed is caught when the phase closes."""
        from repro.charm.aggregation import MessageAggregator, RecordBatch

        self._open_day(checker)
        channel = MessageAggregator("visits", buffer_bytes=64)
        rows = np.arange(5)
        flushed = channel.append_many(
            0, np.ones(5, dtype=np.int64),
            RecordBatch("lm", "recv_visits", np.zeros(5, dtype=np.int64), rows, 16),
        )
        assert [len(c) for _, chunks in flushed for c in chunks] == [4]
        with pytest.raises(InvariantViolation, match="'visits' still buffers records"):
            checker.close_visit_phase(channel)


class TestInfectPhase:
    def test_duplicate_rng_key_fires(self, checker):
        checker.begin_day(0, np.zeros(checker.graph.n_persons, dtype=np.int64))
        ev = InfectionEvent(person=3, location=1, minute=100)
        checker.record_infections(0, [ev])
        with pytest.raises(InvariantViolation, match="duplicate transmission RNG key"):
            checker.record_infections(0, [ev])

    def test_lost_infect_fires(self, checker):
        checker.begin_day(0, np.zeros(checker.graph.n_persons, dtype=np.int64))
        checker.record_infections(0, [InfectionEvent(person=3, location=1, minute=100)])
        with pytest.raises(InvariantViolation, match="infect delivery broken"):
            checker.close_infect_phase()

    def test_late_infect_after_close_fires(self, checker):
        checker.begin_day(0, np.zeros(checker.graph.n_persons, dtype=np.int64))
        checker.close_infect_phase()
        with pytest.raises(InvariantViolation, match="closure soundness"):
            checker.record_infect_received(3)


class TestDayBoundary:
    def _curve(self, cumulative):
        c = EpiCurve()
        c.record_day(cumulative, 0.0)
        return c

    def test_illegal_ptts_step_fires(self, checker):
        d = influenza_model()
        n = checker.graph.n_persons
        state0 = np.full(n, d.susceptible_index, dtype=np.int64)
        checker.begin_day(0, state0)
        checker.close_visit_phase()
        checker.close_infect_phase()
        state1 = state0.copy()
        state1[0] = d.index["recovered"]  # susceptible -> recovered teleport
        with pytest.raises(InvariantViolation, match="illegal PTTS step"):
            checker.end_day(0, state1, np.zeros(n, dtype=bool), self._curve(0))

    def test_conservation_mismatch_fires(self, checker):
        n = checker.graph.n_persons
        state = np.full(n, checker.disease.susceptible_index, dtype=np.int64)
        checker.begin_day(0, state)
        checker.close_visit_phase()
        checker.close_infect_phase()
        ever = np.zeros(n, dtype=bool)
        ever[:5] = True  # 5 ever infected, curve says 3
        with pytest.raises(InvariantViolation, match="infection conservation"):
            checker.end_day(0, state, ever, self._curve(3))

    def test_open_phase_at_day_end_fires(self, checker):
        n = checker.graph.n_persons
        state = np.full(n, checker.disease.susceptible_index, dtype=np.int64)
        checker.begin_day(0, state)
        with pytest.raises(InvariantViolation, match="open"):
            checker.end_day(0, state, np.zeros(n, dtype=bool), self._curve(0))


class TestEndToEnd:
    """Break the simulator itself; the full run must abort."""

    def _sim(self, graph, **kwargs):
        m = Machine(SMALL_MACHINE)
        dist = Distribution.from_partition(round_robin_partition(graph, m.n_pes), m)
        return ParallelEpiSimdemics(
            _scenario(graph), SMALL_MACHINE, dist, validate=True, **kwargs
        )

    def test_clean_run_passes_and_counts(self, tiny_graph):
        sim = self._sim(tiny_graph)
        sim.run()
        # 3 partition checks + 5 per day (2 visit + 1 infect + 3 day-end
        # minus none) — just require real coverage, not an exact count.
        assert sim.checker.checks_passed > 3 + 4 * sim.scenario.n_days

    def test_duplicated_delivery_aborts_run(self, tiny_graph, monkeypatch):
        sim = self._sim(tiny_graph)
        original = _LocationManager.recv_visits
        corrupted = {"done": False}

        def corrupt(self, rows):
            original(self, rows)
            if not corrupted["done"]:
                corrupted["done"] = True
                original(self, rows[:1])  # one row arrives twice

        monkeypatch.setattr(_LocationManager, "recv_visits", corrupt)
        with pytest.raises(InvariantViolation):
            sim.run()

    def test_double_seeded_curve_aborts_run(self, tiny_graph, monkeypatch):
        sim = self._sim(tiny_graph)
        original = EpiCurve.record_day

        def inflate(self, new, prevalence):
            return original(self, new + 1, prevalence)

        monkeypatch.setattr(EpiCurve, "record_day", inflate)
        with pytest.raises(InvariantViolation, match="infection conservation"):
            sim.run()


class TestDetectorCounters:
    @staticmethod
    def _runtime():
        from repro.charm.network import NetworkModel
        from repro.charm.scheduler import RuntimeSimulator

        return RuntimeSimulator(Machine(SMALL_MACHINE), NetworkModel(), validate=True)

    def test_producer_done_overflow_fires(self):
        from repro.charm.completion import CompletionDetector

        rt = self._runtime()
        det = CompletionDetector(rt, "t")
        det.begin_phase(n_producers=1, target=("x", 0, "y"))
        rt._exec_pe = 0
        det.done_flag[0] = 1  # the real announcement already happened
        with pytest.raises(InvariantViolation, match="producer_done"):
            det.producer_done()  # the phantom second announcement

    def test_phantom_consumption_fires(self):
        from repro.charm.completion import CompletionDetector

        rt = self._runtime()
        det = CompletionDetector(rt, "t2")
        det.begin_phase(n_producers=0, target=("x", 0, "y"))
        with pytest.raises(InvariantViolation, match="phantom consumption"):
            det._wave_result(None, (2, 5, 0))

    def test_undrained_channel_fires(self):
        from repro.charm.aggregation import AggregationRecord

        rt = self._runtime()
        rt.create_channel("stuck", 1 << 16)
        rt.aggregators["stuck"].append(
            0, 1, AggregationRecord("visits", 0, "recv", None, 8)
        )
        with pytest.raises(InvariantViolation, match="stuck"):
            rt._check_drained()
