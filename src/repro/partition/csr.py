"""CSR graphs for the partitioner.

The partitioner operates on undirected graphs in compressed sparse row
form with integer edge weights and multi-constraint integer vertex
weights — the same interface METIS exposes.  The person–location
bipartite graph converts via :func:`bipartite_to_csr`: persons take
vertex ids ``0..n_persons-1``, locations ``n_persons..``, and each
(person, location) pair becomes one undirected edge weighted by its
visit count (the communication volume between the two objects).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.loadmodel.workload import WorkloadModel, vertex_weight_matrix
from repro.synthpop.graph import PersonLocationGraph

__all__ = ["CSRGraph", "bipartite_to_csr"]


@dataclass
class CSRGraph:
    """Undirected graph in CSR form.

    ``vwgt`` has shape ``(n, ncon)``; every edge appears twice (both
    directions) as METIS requires.
    """

    xadj: np.ndarray
    adjncy: np.ndarray
    adjwgt: np.ndarray
    vwgt: np.ndarray

    @property
    def n_vertices(self) -> int:
        return int(self.xadj.shape[0] - 1)

    @property
    def n_edges(self) -> int:
        """Undirected edge count (adjacency is twice this)."""
        return int(self.adjncy.shape[0] // 2)

    @property
    def ncon(self) -> int:
        return int(self.vwgt.shape[1])

    def neighbors(self, v: int) -> np.ndarray:
        return self.adjncy[self.xadj[v] : self.xadj[v + 1]]

    def edge_weights_of(self, v: int) -> np.ndarray:
        return self.adjwgt[self.xadj[v] : self.xadj[v + 1]]

    def degree(self, v: int) -> int:
        return int(self.xadj[v + 1] - self.xadj[v])

    def total_vwgt(self) -> np.ndarray:
        """Per-constraint total vertex weight, shape (ncon,)."""
        return self.vwgt.sum(axis=0)

    # ------------------------------------------------------------------
    @classmethod
    def from_edge_list(
        cls,
        n_vertices: int,
        u: np.ndarray,
        v: np.ndarray,
        w: np.ndarray,
        vwgt: np.ndarray,
    ) -> "CSRGraph":
        """Build from an undirected edge list (each edge listed once).

        Parallel edges are merged by summing weights; self-loops are
        rejected (METIS semantics).
        """
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        w = np.asarray(w, dtype=np.int64)
        if np.any(u == v):
            raise ValueError("self-loops are not allowed")
        if u.size:
            if min(u.min(), v.min()) < 0 or max(u.max(), v.max()) >= n_vertices:
                raise ValueError("edge endpoint out of range")
        # Merge parallel edges on the canonical (min, max) key.
        lo = np.minimum(u, v)
        hi = np.maximum(u, v)
        key = lo * n_vertices + hi
        uniq, inv = np.unique(key, return_inverse=True)
        merged_w = np.bincount(inv, weights=w).astype(np.int64)
        lo = (uniq // n_vertices).astype(np.int64)
        hi = (uniq % n_vertices).astype(np.int64)
        # Symmetrise.
        src = np.concatenate([lo, hi])
        dst = np.concatenate([hi, lo])
        ww = np.concatenate([merged_w, merged_w])
        order = np.argsort(src, kind="stable")
        src, dst, ww = src[order], dst[order], ww[order]
        xadj = np.zeros(n_vertices + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n_vertices), out=xadj[1:])
        vwgt = np.asarray(vwgt, dtype=np.int64)
        if vwgt.ndim == 1:
            vwgt = vwgt[:, None]
        if vwgt.shape[0] != n_vertices:
            raise ValueError("vwgt row count must equal n_vertices")
        return cls(xadj=xadj, adjncy=dst, adjwgt=ww, vwgt=vwgt)

    def validate(self) -> None:
        """Structural checks: index ranges, positive weights, and exact
        symmetry — the multiset of ``(src, dst, w)`` entries equals its
        transpose."""
        if self.xadj[0] != 0 or self.xadj[-1] != self.adjncy.shape[0]:
            raise ValueError("xadj endpoints inconsistent")
        if np.any(np.diff(self.xadj) < 0):
            raise ValueError("xadj not monotone")
        if self.adjncy.size and (self.adjncy.min() < 0 or self.adjncy.max() >= self.n_vertices):
            raise ValueError("adjacency index out of range")
        if np.any(self.adjwgt <= 0):
            raise ValueError("edge weights must be positive")
        src = np.repeat(np.arange(self.n_vertices), np.diff(self.xadj))
        fwd = np.stack([src, self.adjncy, self.adjwgt])
        bwd = fwd[[1, 0, 2]]  # the transpose: (dst, src, w)
        if not np.array_equal(fwd[:, np.lexsort(fwd[::-1])], bwd[:, np.lexsort(bwd[::-1])]):
            raise ValueError("graph is not symmetric")


def bipartite_to_csr(
    graph: PersonLocationGraph, workload: WorkloadModel | None = None
) -> CSRGraph:
    """Convert a person–location graph to the partitioner's CSR form.

    Vertices: persons then locations; edges: collapsed visits weighted
    by visit multiplicity; vertex weights: the multi-constraint matrix
    of :func:`repro.loadmodel.workload.vertex_weight_matrix`.
    """
    p, l, w = graph.bipartite_adjacency()
    vwgt = vertex_weight_matrix(graph, workload)
    return CSRGraph.from_edge_list(
        graph.n_persons + graph.n_locations, p, l + graph.n_persons, w, vwgt
    )
