"""The strategies must only ever produce structurally valid inputs —
otherwise the equivalence property would fail on malformed data rather
than real divergences."""

import numpy as np
from hypothesis import HealthCheck, given, settings

from repro.charm.machine import Machine
from repro.synthpop.graph import MINUTES_PER_DAY
from tests.strategies import machine_configs, scenarios, visit_graphs

_settings = settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestVisitGraphs:
    @_settings
    @given(visit_graphs())
    def test_graphs_validate(self, graph):
        graph.validate()  # raises on any structural breakage
        assert graph.n_persons >= 1
        assert graph.n_locations >= 1

    @_settings
    @given(visit_graphs())
    def test_visits_sorted_and_bounded(self, graph):
        if graph.n_visits:
            assert np.all(np.diff(graph.visit_person) >= 0)
            assert graph.visit_start.min() >= 0
            assert graph.visit_end.max() <= MINUTES_PER_DAY
            assert np.all(graph.visit_end > graph.visit_start)

    @_settings
    @given(visit_graphs(profiles=("heavy-tail",)))
    def test_heavy_tail_concentrates_visits(self, graph):
        # Location 0 must carry a plurality of the visits.
        counts = np.bincount(graph.visit_location, minlength=graph.n_locations)
        assert counts[0] == counts.max()

    @_settings
    @given(visit_graphs(profiles=("zero-visits",)))
    def test_zero_visit_profile_is_empty(self, graph):
        assert graph.n_visits == 0

    @_settings
    @given(visit_graphs(profiles=("one-person",)))
    def test_one_person_profile(self, graph):
        assert graph.n_persons == 1

    @_settings
    @given(visit_graphs(profiles=("single-subloc",)))
    def test_single_subloc_profile(self, graph):
        assert np.all(graph.location_n_sublocs == 1)


class TestScenarios:
    @_settings
    @given(scenarios())
    def test_scenarios_are_runnable_specs(self, scenario):
        scenario.graph.validate()
        assert 1 <= scenario.n_days <= 5
        assert 0 <= scenario.initial_infections <= scenario.graph.n_persons
        assert scenario.transmission.transmissibility > 0


class TestMachineConfigs:
    @_settings
    @given(machine_configs())
    def test_machines_have_pes(self, config):
        assert Machine(config).n_pes >= 1
