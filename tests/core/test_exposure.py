"""Location-phase exposure computation: grouping invariance.

The keystone property for parallel correctness: splitting the locations
across multiple calls (owned-location masks) yields exactly the
infections of one whole-population call.
"""

from collections import Counter

import numpy as np

from repro.core import Scenario, TransmissionModel
from repro.core.exposure import compute_infections
from repro.util.rng import RngFactory


def _setup(graph, infected_frac=0.1, seed=3):
    sc = Scenario(graph=graph, seed=seed, transmission=TransmissionModel(3e-4))
    d = sc.disease
    state, remaining = d.initial_health(graph.n_persons)
    rng = np.random.default_rng(seed)
    sick = rng.choice(graph.n_persons, int(graph.n_persons * infected_frac), replace=False)
    state[sick] = d.state_index("infectious_symptomatic")
    return sc, state


def _key(events):
    return sorted((e.person, e.location, e.minute) for e in events)


class TestGroupingInvariance:
    def test_split_by_location_equals_whole(self, tiny_graph):
        sc, state = _setup(tiny_graph)
        f = RngFactory(sc.seed)
        whole = compute_infections(tiny_graph, state, sc.disease, sc.transmission, 0, f)
        # Own locations by parity — two "LocationManagers".
        even = np.arange(tiny_graph.n_locations) % 2 == 0
        a = compute_infections(tiny_graph, state, sc.disease, sc.transmission, 0, f, owned=even)
        b = compute_infections(tiny_graph, state, sc.disease, sc.transmission, 0, f, owned=~even)
        assert _key(whole.infections) == _key(a.infections + b.infections)

    def test_no_infectious_no_infections(self, tiny_graph):
        sc, _ = _setup(tiny_graph)
        d = sc.disease
        state, _ = d.initial_health(tiny_graph.n_persons)
        res = compute_infections(tiny_graph, state, d, sc.transmission, 0, RngFactory(0))
        assert res.infections == []

    def test_empty_rows(self, tiny_graph):
        """An owner of no location processes no visit: no records, no events."""
        sc, state = _setup(tiny_graph)
        res = compute_infections(
            tiny_graph, state, sc.disease, sc.transmission, 0, RngFactory(0),
            owned=np.zeros(tiny_graph.n_locations, dtype=bool), collect_stats=True,
        )
        assert res.infections == []
        assert res.events == {}


class TestStats:
    def test_event_counts_are_two_per_visit(self, tiny_graph):
        sc, state = _setup(tiny_graph)
        res = compute_infections(
            tiny_graph, state, sc.disease, sc.transmission, 0,
            RngFactory(0), collect_stats=True,
        )
        assert sum(res.events.values()) == 2 * tiny_graph.n_visits

    def test_merge_accumulates(self, tiny_graph):
        sc, state = _setup(tiny_graph)
        a = compute_infections(
            tiny_graph, state, sc.disease, sc.transmission, 0,
            RngFactory(0), collect_stats=True,
        )
        before = sum(a.events.values())
        b = compute_infections(
            tiny_graph, state, sc.disease, sc.transmission, 1,
            RngFactory(0), collect_stats=True,
        )
        a.events.update(b.events)
        assert sum(a.events.values()) == before + sum(b.events.values())

    def test_infection_minutes_within_day(self, tiny_graph):
        sc, state = _setup(tiny_graph, infected_frac=0.3)
        res = compute_infections(
            tiny_graph, state, sc.disease, sc.transmission, 0, RngFactory(3)
        )
        assert res.infections, "expected some transmissions at 30% prevalence"
        for ev in res.infections:
            assert 0 < ev.minute <= 1440


class TestCounterMerge:
    """Stats accumulate Counter-style: folding results that share
    location keys with ``update`` — what every backend's run loop does
    — must *add* counts, never overwrite them."""

    def test_merge_adds_on_shared_locations(self, tiny_graph):
        sc, state = _setup(tiny_graph)
        a = compute_infections(
            tiny_graph, state, sc.disease, sc.transmission, 0,
            RngFactory(0), collect_stats=True,
        )
        b = compute_infections(
            tiny_graph, state, sc.disease, sc.transmission, 1,
            RngFactory(0), collect_stats=True,
        )
        expected = {loc: a.events[loc] + b.events[loc] for loc in set(a.events) | set(b.events)}
        expected_inter = {
            loc: a.interactions[loc] + b.interactions[loc]
            for loc in set(a.interactions) | set(b.interactions)
        }
        a.events.update(b.events)
        a.interactions.update(b.interactions)
        assert dict(a.events) == expected
        assert dict(a.interactions) == expected_inter

    def test_merge_across_location_groups(self, tiny_graph):
        """The parallel path: each LocationManager computes a disjoint
        location group; merged per-location stats must equal the
        whole-population call's."""
        sc, state = _setup(tiny_graph)
        whole = compute_infections(
            tiny_graph, state, sc.disease, sc.transmission, 0,
            RngFactory(sc.seed), collect_stats=True,
        )
        events, interactions, infections = Counter(), Counter(), []
        for part in range(3):
            res = compute_infections(
                tiny_graph, state, sc.disease, sc.transmission, 0, RngFactory(sc.seed),
                owned=np.arange(tiny_graph.n_locations) % 3 == part, collect_stats=True,
            )
            events.update(res.events)
            interactions.update(res.interactions)
            infections += res.infections
        assert dict(events) == dict(whole.events)
        assert dict(interactions) == dict(whole.interactions)
        assert _key(infections) == _key(whole.infections)

    def test_sequential_run_accumulates_location_stats(self, tiny_graph):
        from repro.core import SequentialSimulator

        sc = Scenario(
            graph=tiny_graph, n_days=6, seed=3, initial_infections=8,
            transmission=TransmissionModel(3e-4),
        )
        result = SequentialSimulator(sc, collect_location_stats=True).run()
        # Every day contributes 2 events per visit made.
        assert sum(result.location_events.values()) == 2 * sum(
            d.visits_made for d in result.days
        )
