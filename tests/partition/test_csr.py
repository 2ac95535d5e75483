"""CSR graph construction and validation."""

import numpy as np
import pytest

from repro.partition.csr import CSRGraph, bipartite_to_csr


def _path_graph(n=4):
    u = np.arange(n - 1)
    v = np.arange(1, n)
    w = np.ones(n - 1, dtype=np.int64)
    return CSRGraph.from_edge_list(n, u, v, w, np.ones((n, 1), dtype=np.int64))


class TestFromEdgeList:
    def test_path_graph_structure(self):
        g = _path_graph(4)
        g.validate()
        assert g.n_vertices == 4
        assert g.n_edges == 3
        assert g.degree(0) == 1
        assert g.degree(1) == 2

    def test_symmetrised(self):
        g = _path_graph(3)
        assert 1 in g.neighbors(0)
        assert 0 in g.neighbors(1)

    def test_parallel_edges_merged(self):
        g = CSRGraph.from_edge_list(
            2,
            np.array([0, 0, 1]),
            np.array([1, 1, 0]),
            np.array([2, 3, 5]),
            np.ones((2, 1), dtype=np.int64),
        )
        assert g.n_edges == 1
        assert g.edge_weights_of(0)[0] == 10

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            CSRGraph.from_edge_list(
                2, np.array([0]), np.array([0]), np.array([1]),
                np.ones((2, 1), dtype=np.int64),
            )

    def test_endpoint_out_of_range(self):
        with pytest.raises(ValueError):
            CSRGraph.from_edge_list(
                2, np.array([0]), np.array([5]), np.array([1]),
                np.ones((2, 1), dtype=np.int64),
            )

    def test_1d_vwgt_promoted(self):
        g = CSRGraph.from_edge_list(
            2, np.array([0]), np.array([1]), np.array([1]), np.array([3, 4])
        )
        assert g.vwgt.shape == (2, 1)
        assert g.ncon == 1

    def test_total_vwgt(self):
        g = _path_graph(5)
        np.testing.assert_array_equal(g.total_vwgt(), [5])


class TestBipartiteConversion:
    def test_vertex_count_and_constraints(self, tiny_graph):
        csr = bipartite_to_csr(tiny_graph)
        assert csr.n_vertices == tiny_graph.n_persons + tiny_graph.n_locations
        assert csr.ncon == 2
        csr.validate()

    def test_person_weights_in_constraint0(self, tiny_graph):
        csr = bipartite_to_csr(tiny_graph)
        n = tiny_graph.n_persons
        assert np.all(csr.vwgt[:n, 1] == 0)
        assert np.all(csr.vwgt[n:, 0] == 0)
        np.testing.assert_array_equal(csr.vwgt[:n, 0], np.maximum(tiny_graph.person_degrees, 1))

    def test_edge_weights_are_visit_multiplicities(self, tiny_graph):
        csr = bipartite_to_csr(tiny_graph)
        # Total adjacency weight = 2 x visits (each edge twice, weights = multiplicity).
        assert csr.adjwgt.sum() == 2 * tiny_graph.n_visits

    def test_graph_is_bipartite(self, tiny_graph):
        csr = bipartite_to_csr(tiny_graph)
        n = tiny_graph.n_persons
        for v in range(0, n, max(1, n // 20)):
            assert np.all(csr.neighbors(v) >= n)


class TestValidate:
    """Symmetry is exact: the ``(src, dst, w)`` entries equal their transpose."""

    @staticmethod
    def _graph(xadj, adjncy, adjwgt):
        n = len(xadj) - 1
        return CSRGraph(*(np.array(a, dtype=np.int64) for a in (xadj, adjncy, adjwgt)),
                        np.ones((n, 1), dtype=np.int64))

    def test_symmetric_graph_with_parallel_edges_and_a_self_loop_passes(self):
        self._graph([0, 3, 5], [1, 1, 0, 0, 0], [2, 5, 7, 5, 2]).validate()

    def test_a_reverse_weight_off_by_five_in_a_million_is_refused(self):
        g = self._graph([0, 1, 2], [1, 0], [1_000_000, 1_000_005])
        with pytest.raises(ValueError, match="not symmetric"):
            g.validate()

    def test_a_directed_three_cycle_is_refused(self):
        # every weighted degree matches its transpose, yet 0→1 has no 1→0
        g = self._graph([0, 1, 2, 3], [1, 2, 0], [1, 1, 1])
        with pytest.raises(ValueError, match="not symmetric"):
            g.validate()

    def test_weights_swapped_between_parallel_edges_still_pass(self):
        # the multiset, not the row order: 0→1 twice (1, 2) against 1→0 (2, 1)
        self._graph([0, 2, 4], [1, 1, 0, 0], [1, 2, 2, 1]).validate()

    def test_parallel_edges_with_equal_sums_but_other_weights_are_refused(self):
        g = self._graph([0, 2, 4], [1, 1, 0, 0], [1, 3, 2, 2])
        with pytest.raises(ValueError, match="not symmetric"):
            g.validate()
