"""Contact-graph projection: structural invariants and weight conservation.

The hypothesis property is the load-bearing one: for *any* small visit
graph the strategies generate, the projected contact network must be
symmetric, self-loop-free, and conserve total co-presence minutes
against a brute-force enumeration of visit pairs — the three properties
the baselines' distributional-equivalence argument rests on.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.baselines import ContactGraph, project_contact_graph
from repro.synthpop.graph import PersonLocationGraph
from tests.strategies import visit_graphs


def brute_force_pair_minutes(graph) -> float:
    """Total overlap minutes over unordered distinct-person visit pairs."""
    total = 0.0
    v = graph
    for i in range(v.n_visits):
        for j in range(i + 1, v.n_visits):
            if v.visit_person[i] == v.visit_person[j]:
                continue
            if v.visit_location[i] != v.visit_location[j]:
                continue
            if v.visit_subloc[i] != v.visit_subloc[j]:
                continue
            overlap = min(v.visit_end[i], v.visit_end[j]) - max(
                v.visit_start[i], v.visit_start[j]
            )
            if overlap > 0:
                total += float(overlap)
    return total


class TestProjectionProperties:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(graph=visit_graphs())
    def test_projection_invariants(self, graph):
        contact = project_contact_graph(graph)
        contact.validate()  # symmetry, no self-loops, CSR sanity
        assert contact.n_persons == graph.n_persons
        # Weight conservation against the O(V^2) reference.
        assert contact.total_weight == pytest.approx(
            brute_force_pair_minutes(graph)
        )

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(graph=visit_graphs())
    def test_edge_list_matches_adjacency(self, graph):
        contact = project_contact_graph(graph)
        u, v, w = contact.edge_list()
        assert np.all(u < v)
        assert u.size == contact.n_edges
        assert w.sum() == pytest.approx(contact.total_weight)
        # Every listed edge appears in both endpoints' adjacency.
        for a, b, weight in zip(u[:20], v[:20], w[:20]):
            nbr, nw = contact.neighbors(int(a))
            k = np.flatnonzero(nbr == b)
            assert k.size == 1 and nw[k[0]] == pytest.approx(weight)


def _two_room_graph():
    """3 persons: A and B share room 0 (overlap 60m), C alone in room 1."""
    return PersonLocationGraph(
        name="rooms",
        n_persons=3,
        n_locations=1,
        visit_person=np.array([0, 1, 2]),
        visit_location=np.array([0, 0, 0]),
        visit_subloc=np.array([0, 0, 1], dtype=np.int32),
        visit_start=np.array([100, 140, 100], dtype=np.int32),
        visit_end=np.array([200, 260, 200], dtype=np.int32),
        location_n_sublocs=np.array([2], dtype=np.int32),
        location_type=np.array([4], dtype=np.int8),
        person_age=np.array([30, 30, 30], dtype=np.int16),
        person_home=np.array([0, 0, 0]),
    )


class TestSmallCases:
    def test_single_overlap_pair(self):
        u, v, w = project_contact_graph(_two_room_graph()).edge_list()
        assert u.tolist() == [0] and v.tolist() == [1]
        assert w.tolist() == [60.0]  # [140, 200]

    def test_different_sublocations_no_contact(self):
        assert project_contact_graph(_two_room_graph()).degrees[2] == 0

    def test_repeat_visits_accumulate(self):
        g = _two_room_graph()
        # Duplicate all visits -> same pairs, doubled + cross-visit overlaps.
        g2 = g.with_visits(
            np.concatenate([g.visit_person, g.visit_person]),
            np.concatenate([g.visit_location, g.visit_location]),
            np.concatenate([g.visit_subloc, g.visit_subloc]),
            np.concatenate([g.visit_start, g.visit_start]),
            np.concatenate([g.visit_end, g.visit_end]),
        )
        contact = project_contact_graph(g2)
        assert contact.n_edges == 1
        assert contact.total_weight == 4 * 60.0  # 2x2 visit combinations

    def test_empty_population(self):
        none = np.empty(0, dtype=np.int64)
        g = _two_room_graph().with_visits(none, none, none, none, none)
        assert project_contact_graph(g).n_edges == 0


class TestOnSyntheticPopulation:
    def test_household_contacts_exist(self, tiny_graph):
        contact = project_contact_graph(tiny_graph)
        assert contact.n_edges > 0
        # Mean contact degree should be well above 1 (household + anchor).
        assert contact.degrees.mean() > 1.0

    def test_no_self_edges_and_canonical_order(self, tiny_graph):
        u, v, _ = project_contact_graph(tiny_graph).edge_list()
        assert np.all(u < v)

    def test_minutes_positive_and_bounded(self, tiny_graph):
        contact = project_contact_graph(tiny_graph)
        assert np.all(contact.weights > 0)
        # A pair can't share more minutes than a few full days of visits.
        assert contact.weights.max() < 10 * 1440

    def test_degree_dispersion(self, small_graph):
        """Contact degrees are broad but bounded: sublocations cap
        co-presence (capacity ~25), so the person–person tail is
        moderated relative to the location in-degree tail — which is
        why the paper's splitLoc operates on locations, not people."""
        deg = project_contact_graph(small_graph).degrees
        assert deg.max() >= 2.5 * max(np.median(deg), 1)
        assert deg.mean() > 10  # everyone meets household + anchor groups


class TestProjectionOnPresets:
    def test_tiny_graph_projects_clean(self, tiny_graph):
        contact = project_contact_graph(tiny_graph)
        contact.validate()  # no self-loops
        assert contact.n_edges > 0
        u, v, _ = contact.edge_list()
        assert np.all(u < v)  # each edge once, in canonical order
        assert contact.name.endswith("-contact")
        # Projection is deterministic.
        again = project_contact_graph(tiny_graph)
        assert np.array_equal(contact.indptr, again.indptr)
        assert np.array_equal(contact.indices, again.indices)
        assert np.array_equal(contact.weights, again.weights)

    def test_empty_visit_graph_projects_to_empty(self, tiny_graph):
        none = np.empty(0, dtype=np.int64)
        empty = tiny_graph.with_visits(none, none, none, none, none)
        contact = project_contact_graph(empty)
        contact.validate()
        assert contact.n_edges == 0 and contact.total_weight == 0.0


class TestValidateCatchesCorruption:
    def _chain(self) -> ContactGraph:
        return ContactGraph(
            n_persons=3,
            indptr=np.array([0, 1, 3, 4]),
            indices=np.array([1, 0, 2, 1]),
            weights=np.array([5.0, 5.0, 7.0, 7.0]),
        )

    def test_clean_chain_passes(self):
        self._chain().validate()

    def test_self_loop_rejected(self):
        g = self._chain()
        g.indices[0] = 0
        with pytest.raises(ValueError, match="self-loop|symmetric"):
            g.validate()

    def test_asymmetric_weight_rejected(self):
        g = self._chain()
        g.weights[1] = 99.0
        with pytest.raises(ValueError, match="symmetric"):
            g.validate()

    def test_nonpositive_weight_rejected(self):
        g = self._chain()
        g.weights[2] = 0.0
        with pytest.raises(ValueError, match="positive"):
            g.validate()

    def test_bad_indptr_rejected(self):
        g = self._chain()
        g.indptr[-1] = 99
        with pytest.raises(ValueError, match="CSR"):
            g.validate()
