"""The production partitioner loops reproduce the scalar ones exactly.

The production loops are C where ``repro.core.ckernel`` loads and the
list-backed ones otherwise (CI runs this file both ways).
``gp_reference`` holds the per-vertex NumPy-scalar loops the partitioner
ran before; the production loops must return the same part / match
vectors, leave a generator in the same state, and make the whole
multilevel pipeline produce the same k-way partition.  The partition is
what the virtual-time goldens hang on, so "same" is ``==``, not "as good".
"""

import contextlib
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.partition import coarsen, initial, metis, refine
from repro.partition.csr import CSRGraph, bipartite_to_csr
from repro.partition.metis import MultilevelPartitioner, PartitionerOptions
from repro.spec import PartitionSpec, PopulationSpec

from . import gp_reference as ref

TARGET_FRACS = st.sampled_from([0.5, 1 / 3, 7 / 16])
UBFACTORS = st.sampled_from([1.0, 1.05, 1.10])


def _raw_rows(g: CSRGraph, rng) -> CSRGraph:
    """``g`` with every adjacency row listed twice (parallel edges) and a
    self-loop on some vertices — CSR the constructors never emit but the
    loops accept; symmetric by construction."""
    xadj, adjncy, adjwgt = [0], [], []
    for v in range(g.n_vertices):
        row = slice(g.xadj[v], g.xadj[v + 1])
        adjncy += 2 * g.adjncy[row].tolist()
        adjwgt += 2 * g.adjwgt[row].tolist()
        if rng.random() < 0.3:
            adjncy.append(v)
            adjwgt.append(int(rng.integers(1, 4)))
        xadj.append(len(adjncy))
    xadj, adjncy, adjwgt = (np.array(x, dtype=np.int64) for x in (xadj, adjncy, adjwgt))
    return CSRGraph(xadj, adjncy, adjwgt, g.vwgt)


@st.composite
def graphs(draw, raw=st.booleans()):
    """Random symmetric CSR graph: sparse enough for isolated vertices,
    optionally a star, few distinct weights (ties are the common case),
    one or two constraints of which the second may be all zero."""
    n = draw(st.integers(1, 48))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    edges = set()
    if n > 1:
        for _ in range(draw(st.integers(0, 3 * n))):
            a, b = sorted(rng.integers(0, n, 2).tolist())
            if a != b:
                edges.add((a, b))
        if draw(st.booleans()):
            hub = int(rng.integers(n))
            edges |= {(min(hub, v), max(hub, v)) for v in range(n) if v != hub}
    u, v = (np.array(x, dtype=np.int64) for x in zip(*sorted(edges))) if edges else (
        np.empty(0, np.int64), np.empty(0, np.int64))
    w = rng.integers(1, 4, u.size)
    ncon = draw(st.integers(1, 2))
    vwgt = rng.integers(0, 6, (n, ncon))
    if ncon == 2 and draw(st.booleans()):
        vwgt[:, 1] = 0
    g = CSRGraph.from_edge_list(n, u, v, w, vwgt)
    return _raw_rows(g, rng) if draw(raw) else g


def _random_part(g: CSRGraph, seed: int) -> np.ndarray:
    return (np.random.default_rng(seed).random(g.n_vertices) < 0.5).astype(np.int8)


def _same_graph(a: CSRGraph, b: CSRGraph) -> None:
    for name in ("xadj", "adjncy", "adjwgt", "vwgt"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name), err_msg=name)


class TestLoopsAgainstReference:
    @given(graphs(), st.integers(0, 99), TARGET_FRACS, UBFACTORS, st.sampled_from([1, 6]))
    @settings(max_examples=150, deadline=None)
    def test_fm_refine(self, g, seed, target_frac, ubfactor, max_passes):
        part = _random_part(g, seed)
        want = ref.fm_refine(g, part.copy(), target_frac, ubfactor, max_passes)
        got = refine.fm_refine(g, part, target_frac, ubfactor, max_passes)
        assert got is part  # still refines in place
        np.testing.assert_array_equal(got, want)
        assert got.dtype == want.dtype

    @given(graphs(), st.integers(0, 99), TARGET_FRACS, UBFACTORS)
    @settings(max_examples=100, deadline=None)
    def test_fm_gain_list_is_all_gains_after_every_pass(self, g, seed, target_frac, ubfactor):
        part = _random_part(g, seed)
        passes = 0
        for p, gain in refine._fm_passes(g, part, target_frac, ubfactor, 6):
            now = np.array(p, dtype=np.int8)
            assert gain == refine.all_gains(g, now).tolist()
            assert gain == [ref.move_gain(g, now, v) for v in range(g.n_vertices)]
            passes += 1
        assert 1 <= passes <= 6
        np.testing.assert_array_equal(part, now)  # written back when the passes end

    @given(graphs(), st.integers(0, 99), TARGET_FRACS, UBFACTORS)
    @settings(max_examples=100, deadline=None)
    def test_rebalance(self, g, seed, target_frac, ubfactor):
        part = _random_part(g, seed)
        want = ref.rebalance(g, part.copy(), target_frac, ubfactor)
        np.testing.assert_array_equal(refine.rebalance(g, part, target_frac, ubfactor), want)

    @given(graphs(), st.integers(0, 99))
    @settings(max_examples=150, deadline=None)
    def test_heavy_edge_matching_and_rng_consumption(self, g, seed):
        rng_ref, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        want = ref.heavy_edge_matching(g, rng_ref)
        got = coarsen.heavy_edge_matching(g, rng)
        np.testing.assert_array_equal(got, want)
        assert got.dtype == want.dtype
        assert rng.bit_generator.state == rng_ref.bit_generator.state

    @given(graphs(raw=st.just(False)), st.integers(0, 99))
    @settings(max_examples=100, deadline=None)
    def test_contract(self, g, seed):
        match = ref.heavy_edge_matching(g, np.random.default_rng(seed))
        want, want_map = ref.contract(g, match)
        got, got_map = coarsen.contract(g, match)
        _same_graph(got, want)
        np.testing.assert_array_equal(got_map, want_map)

    @given(graphs(), TARGET_FRACS, st.data())
    @settings(max_examples=150, deadline=None)
    def test_grow_bisection(self, g, target_frac, data):
        seed_vertex = data.draw(st.integers(0, g.n_vertices - 1))
        want = ref.grow_bisection(g, target_frac, seed_vertex)
        got = initial.grow_bisection(g, target_frac, seed_vertex)
        np.testing.assert_array_equal(got, want)
        assert got.dtype == want.dtype

    @given(graphs(raw=st.just(False)), st.integers(0, 99))
    @settings(max_examples=100, deadline=None)
    def test_induced_subgraph(self, g, seed):
        # from_edge_list rows are what the recursion hands down; the
        # subgraph must come out in the rows from_edge_list would build.
        mask = np.random.default_rng(seed).random(g.n_vertices) < 0.6
        _same_graph(metis._induced_subgraph(g, mask), ref._induced_subgraph(g, mask))


@contextlib.contextmanager
def reference_loops():
    """Swap every rewritten loop for its scalar reference, module-wide."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(coarsen, "heavy_edge_matching", ref.heavy_edge_matching)
        mp.setattr(coarsen, "contract", ref.contract)
        mp.setattr(initial, "grow_bisection", ref.grow_bisection)
        mp.setattr(metis, "fm_refine", ref.fm_refine)
        mp.setattr(metis, "rebalance", ref.rebalance)
        mp.setattr(metis, "_induced_subgraph", ref._induced_subgraph)
        yield


class TestPipelineAgainstReference:
    """The whole recursion, production loops against reference loops."""

    @given(g=graphs(raw=st.just(False)), k=st.integers(2, 7), seed=st.integers(0, 50))
    @settings(max_examples=60, deadline=None)
    def test_kway_on_random_graphs(self, g, k, seed):
        options = PartitionerOptions(seed=seed, coarsen_to=8)
        got = MultilevelPartitioner(options).kway(g, k)
        with reference_loops():
            want = MultilevelPartitioner(options).kway(g, k)
        np.testing.assert_array_equal(got, want)

    def test_kway_on_a_population(self, small_graph):
        g = bipartite_to_csr(small_graph)
        got = MultilevelPartitioner().kway(g, 6)
        with reference_loops():
            want = MultilevelPartitioner().kway(g, 6)
        np.testing.assert_array_equal(got, want)

    def test_initial_bisection_and_rng_consumption(self, small_graph):
        g = bipartite_to_csr(small_graph)
        rng_ref, rng = np.random.default_rng(5), np.random.default_rng(5)
        got = initial.initial_bisection(g, 7 / 16, rng)
        with reference_loops():
            want = initial.initial_bisection(g, 7 / 16, rng_ref)
        np.testing.assert_array_equal(got, want)
        assert rng.bit_generator.state == rng_ref.bit_generator.state


def _digest(population: PopulationSpec, k: int) -> str:
    _, part = PartitionSpec("gp", k, split=True).build(population.build())
    return hashlib.md5(part.person_part.tobytes() + part.location_part.tobytes()).hexdigest()


_HEAVY_TAILED_24K = PopulationSpec(
    kind="preset", preset="heavy-tailed", n_persons=24000, seed=20140519,
    params={"n_locations": 3000},
)


class TestPinnedPartitions:
    """MD5 of ``person_part + location_part`` as built before the rewrite."""

    def test_ladder_charm_gp_split(self):
        population = PopulationSpec(kind="generated", n_persons=10_000, seed=20140519)
        assert _digest(population, 16) == "507573d5538b1b9df1845e581fa4e9f2"

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "k, md5",
        [(2, "37f31356d57061e3aeebebc3d7c52657"), (16, "0bea22a0acf8a8a9ec1240cf87e3d79d")],
    )
    def test_heavy_tailed_24k(self, k, md5):
        assert _digest(_HEAVY_TAILED_24K, k) == md5


class TestExactWeightRange:
    def _graph(self, vertex_weight, edge_weight):
        return CSRGraph.from_edge_list(
            3, np.array([0, 1]), np.array([1, 2]), np.array([edge_weight, 1]),
            np.array([vertex_weight, 1, 1]),
        )

    @pytest.mark.parametrize("vertex_weight, edge_weight", [(2**53, 1), (1, 2**53)])
    def test_a_weight_of_2_to_53_is_refused(self, vertex_weight, edge_weight):
        g = self._graph(vertex_weight, edge_weight)
        with pytest.raises(ValueError, match=r"2\*\*53"):
            MultilevelPartitioner().bisect(g, 0.5)

    def test_just_below_is_partitioned(self):
        part = MultilevelPartitioner().bisect(self._graph(2**53 - 3, 2**51), 0.5)
        assert set(part.tolist()) == {0, 1}
