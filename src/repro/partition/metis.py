"""Multilevel k-way multi-constraint partitioner (the METIS stand-in).

Recursive bisection in the Karypis–Kumar mould: coarsen by heavy-edge
matching, bisect the coarsest graph by greedy growing, refine with FM
during uncoarsening, then recurse on the two induced subgraphs with
proportional targets until ``k`` parts exist.  Vertex weights are
vectors (multi-constraint); every bisection balances each constraint
against its proportional target within ``ubfactor``.

This is deliberately the same black-box interface the paper uses METIS
through: callers hand in a CSR graph with weight vectors and a part
count and receive a part id per vertex.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import observe
from repro.loadmodel.workload import WorkloadModel
from repro.partition.coarsen import coarsen_graph
from repro.partition.csr import CSRGraph, bipartite_to_csr
from repro.partition.initial import initial_bisection
from repro.partition.quality import BipartitePartition
from repro.partition.refine import fm_refine, rebalance
from repro.synthpop.graph import PersonLocationGraph
from repro.util.rng import RngFactory

__all__ = ["PartitionerOptions", "MultilevelPartitioner", "partition_bipartite"]


@dataclass(frozen=True)
class PartitionerOptions:
    """Tuning knobs (defaults mirror METIS' spirit)."""

    ubfactor: float = 1.10  # per-bisection balance tolerance
    coarsen_to: int = 160  # stop coarsening below this many vertices
    n_init_tries: int = 4
    fm_passes: int = 6
    seed: int = 0


class MultilevelPartitioner:
    """Reusable partitioner instance (options + seeded randomness)."""

    def __init__(self, options: PartitionerOptions | None = None):
        self.options = options or PartitionerOptions()
        self._rng_factory = RngFactory(self.options.seed)
        self._bisection_counter = 0

    # ------------------------------------------------------------------
    @observe.traced("partition.bisect")
    def bisect(self, graph: CSRGraph, target_frac: float) -> np.ndarray:
        """Multilevel bisection: part 0 gets ``target_frac`` of each constraint."""
        opts = self.options
        self._bisection_counter += 1
        rng = self._rng_factory.stream(RngFactory.PARTITION, self._bisection_counter)
        if graph.n_vertices <= 1:
            return np.zeros(graph.n_vertices, dtype=np.int8)
        # float64 sums (bincount, the growing heap) and int-vs-float limit
        # comparisons are exact integer arithmetic only below 2**53.
        if max(graph.total_vwgt().max(initial=0), graph.adjwgt.sum()) >= 2**53:
            raise ValueError("vertex and edge weight sums must stay below 2**53")
        levels = coarsen_graph(graph, rng, coarsen_to=opts.coarsen_to)
        observe.counter("partition.levels", len(levels))
        part = initial_bisection(
            levels[-1].graph, target_frac, rng, n_tries=opts.n_init_tries
        )
        part = rebalance(levels[-1].graph, part, target_frac, opts.ubfactor)
        part = fm_refine(
            levels[-1].graph, part, target_frac, opts.ubfactor, opts.fm_passes
        )
        # Uncoarsen: project and refine at each finer level.
        for level in reversed(levels[:-1]):
            part = part[level.coarse_map]
            part = rebalance(level.graph, part, target_frac, opts.ubfactor)
            part = fm_refine(level.graph, part, target_frac, opts.ubfactor, opts.fm_passes)
        return part

    # ------------------------------------------------------------------
    def kway(self, graph: CSRGraph, k: int) -> np.ndarray:
        """Partition into ``k`` parts by recursive bisection."""
        if k < 1:
            raise ValueError("k must be >= 1")
        out = np.zeros(graph.n_vertices, dtype=np.int64)
        self._kway_rec(graph, k, np.arange(graph.n_vertices, dtype=np.int64), 0, out)
        return out

    def _kway_rec(
        self, graph: CSRGraph, k: int, vertex_ids: np.ndarray, base: int, out: np.ndarray
    ) -> None:
        if k == 1 or graph.n_vertices == 0:
            out[vertex_ids] = base
            return
        if graph.n_vertices <= k:
            # Fewer vertices than parts: one vertex per part, rest empty.
            out[vertex_ids] = base + (np.arange(graph.n_vertices) % k)
            return
        k1 = k // 2
        target = k1 / k
        part = self.bisect(graph, target)
        for side, (kk, offset) in enumerate(((k1, 0), (k - k1, k1))):
            mask = part == side
            ids = vertex_ids[mask]
            sub = _induced_subgraph(graph, mask)
            self._kway_rec(sub, kk, ids, base + offset, out)

    # ------------------------------------------------------------------
    def partition_bipartite(
        self,
        graph: PersonLocationGraph,
        k: int,
        workload: WorkloadModel | None = None,
    ) -> BipartitePartition:
        """Partition a person–location graph into ``k`` parts."""
        with observe.span(
            "partition.kway", k=k, persons=graph.n_persons, locations=graph.n_locations
        ):
            csr = bipartite_to_csr(graph, workload)
            part = self.kway(csr, k)
            n = graph.n_persons
            return BipartitePartition(
                person_part=part[:n].copy(),
                location_part=part[n:].copy(),
                k=k,
                method="GP",
            )


def _induced_subgraph(graph: CSRGraph, mask: np.ndarray) -> CSRGraph:
    """Subgraph on ``mask`` vertices, renumbered densely.

    Adjacency rows are filtered in place and the renumbering is monotone,
    so each row keeps its order (``from_edge_list``'s for every graph the
    partitioner builds) and nothing needs merging or sorting again.
    """
    ids = np.flatnonzero(mask)
    renum = np.full(graph.n_vertices, -1, dtype=np.int64)
    renum[ids] = np.arange(ids.size)
    src = np.repeat(np.arange(graph.n_vertices), np.diff(graph.xadj))
    keep = mask[src] & mask[graph.adjncy]
    xadj = np.zeros(ids.size + 1, dtype=np.int64)
    np.cumsum(np.bincount(renum[src[keep]], minlength=ids.size), out=xadj[1:])
    return CSRGraph(
        xadj=xadj,
        adjncy=renum[graph.adjncy[keep]],
        adjwgt=graph.adjwgt[keep],
        vwgt=graph.vwgt[ids],
    )


def partition_bipartite(
    graph: PersonLocationGraph,
    k: int,
    workload: WorkloadModel | None = None,
    options: PartitionerOptions | None = None,
) -> BipartitePartition:
    """One-shot convenience wrapper around :class:`MultilevelPartitioner`."""
    return MultilevelPartitioner(options).partition_bipartite(graph, k, workload)
