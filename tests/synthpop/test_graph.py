"""PersonLocationGraph invariants and accessors."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.synthpop import PopulationConfig, generate_population
from repro.synthpop.graph import MINUTES_PER_DAY, PersonLocationGraph


def _manual_graph(**overrides):
    """A hand-built 3-person, 2-location graph."""
    base = dict(
        name="manual",
        n_persons=3,
        n_locations=2,
        visit_person=np.array([0, 0, 1, 2]),
        visit_location=np.array([0, 1, 1, 0]),
        visit_subloc=np.array([0, 0, 1, 0], dtype=np.int32),
        visit_start=np.array([0, 500, 480, 60], dtype=np.int32),
        visit_end=np.array([480, 900, 960, 1440], dtype=np.int32),
        location_n_sublocs=np.array([1, 2], dtype=np.int32),
        location_type=np.array([0, 2], dtype=np.int8),
        person_age=np.array([30, 10, 44], dtype=np.int16),
        person_home=np.array([0, 0, 0]),
    )
    base.update(overrides)
    return PersonLocationGraph(**base)


class TestValidation:
    def test_valid_graph_passes(self):
        _manual_graph().validate()

    def test_rejects_subloc_out_of_range(self):
        g = _manual_graph(visit_subloc=np.array([0, 2, 1, 0], dtype=np.int32))
        with pytest.raises(ValueError, match="subloc"):
            g.validate()

    def test_rejects_zero_duration_visit(self):
        g = _manual_graph(visit_end=np.array([0, 900, 960, 1440], dtype=np.int32))
        with pytest.raises(ValueError, match="duration"):
            g.validate()

    def test_rejects_unsorted_visits(self):
        g = _manual_graph(visit_person=np.array([1, 0, 0, 2]))
        with pytest.raises(ValueError, match="sorted"):
            g.validate()

    def test_rejects_visit_past_midnight(self):
        g = _manual_graph(visit_end=np.array([480, 900, MINUTES_PER_DAY + 1, 1440], dtype=np.int32))
        with pytest.raises(ValueError):
            g.validate()


class TestAccessors:
    def test_person_degrees(self):
        g = _manual_graph()
        np.testing.assert_array_equal(g.person_degrees, [2, 1, 1])

    def test_location_visit_counts(self):
        g = _manual_graph()
        np.testing.assert_array_equal(g.location_visit_counts, [2, 2])

    def test_in_degrees_count_unique_visitors(self):
        g = _manual_graph()
        # location 0: persons 0 and 2; location 1: persons 0 and 1.
        np.testing.assert_array_equal(g.location_in_degrees(), [2, 2])

    def test_person_visit_slices(self):
        g = _manual_graph()
        ptr = g.person_visit_slices()
        np.testing.assert_array_equal(ptr, [0, 2, 3, 4])

    def test_location_visit_index_groups_all_visits(self):
        g = _manual_graph()
        order, ptr = g.location_visit_index()
        for loc in range(g.n_locations):
            rows = order[ptr[loc] : ptr[loc + 1]]
            assert np.all(g.visit_location[rows] == loc)
        assert ptr[-1] == g.n_visits

    def test_bipartite_adjacency_collapses_multiplicity(self):
        g = _manual_graph(
            visit_location=np.array([0, 0, 1, 0]),
            visit_subloc=np.array([0, 0, 1, 0], dtype=np.int32),
        )
        p, l, w = g.bipartite_adjacency()
        # person 0 visits location 0 twice -> one edge of weight 2.
        edge = dict(zip(zip(p.tolist(), l.tolist()), w.tolist()))
        assert edge[(0, 0)] == 2

    def test_summary_fields(self):
        s = _manual_graph().summary()
        assert s["visits"] == 4
        assert s["people"] == 3
        assert s["locations"] == 2


class TestWithVisits:
    def test_resorts_and_revalidates(self):
        g = _manual_graph()
        # Shuffle the visit order; with_visits must restore person-sorting.
        perm = np.array([3, 1, 0, 2])
        g2 = g.with_visits(
            g.visit_person[perm],
            g.visit_location[perm],
            g.visit_subloc[perm],
            g.visit_start[perm],
            g.visit_end[perm],
        )
        g2.validate()
        assert np.all(np.diff(g2.visit_person) >= 0)
        assert g2.n_visits == g.n_visits

    def test_cached_indexes_do_not_ride_into_the_new_graph(self, small_graph):
        """``with_visits`` goes through ``dataclasses.replace``, which
        copies every field it is not told about — a cached index would
        arrive in a graph whose rows, locations and sublocations are
        numbered differently (splitLoc) and pick wrong rooms silently."""
        from repro.partition import split_heavy_locations

        g = small_graph
        g.person_visit_slices(), g.location_visit_index(), g.block_visit_index()
        assert all(getattr(g, name) is not None for name in g._INDEX_FIELDS)
        moved = g.with_visits(  # everyone's rooms renumbered, back to front
            g.visit_person, g.visit_location,
            g.location_n_sublocs[g.visit_location] - 1 - g.visit_subloc,
            g.visit_start, g.visit_end,
        )
        split = split_heavy_locations(g, max_partitions=64).graph
        assert split.n_locations > g.n_locations
        for new in (moved, split):
            assert all(getattr(new, name) is None for name in new._INDEX_FIELDS)
            fresh = PersonLocationGraph(**{
                f.name: getattr(new, f.name)
                for f in dataclasses.fields(new) if not f.name.startswith("_")
            })
            for got, expected in zip(new.block_visit_index(), fresh.block_visit_index()):
                assert np.array_equal(got, expected)
            assert not np.array_equal(new.block_visit_index()[0], g.block_visit_index()[0])
        g.invalidate_indexes()
        assert all(getattr(g, name) is None for name in g._INDEX_FIELDS)

    def test_index_fields_lists_every_cached_field(self):
        """The guard above only works if a new cache is registered."""
        private = {f.name for f in dataclasses.fields(PersonLocationGraph) if f.name[0] == "_"}
        assert private == set(PersonLocationGraph._INDEX_FIELDS)

    @given(st.integers(0, 2**31))
    @settings(max_examples=10, deadline=None)
    def test_generated_graphs_always_valid(self, seed):
        g = generate_population(PopulationConfig(n_persons=120), seed)
        g.validate()
