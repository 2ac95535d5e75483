"""Person–person contact graph projected from the visit graph.

The baselines (FastSIR, Dijkstra) operate on a classical contact
network: persons are vertices, and an undirected edge carries the total
*daily co-presence minutes* of the two endpoints.  Projection collapses
the person–location visit graph by enumerating every pair of visits
co-present in the same ``(location, sublocation)`` block with positive
interval overlap — the exact pair geometry the exposure kernels use
(:func:`repro.core.des.blocked_pairwise_exposures`, segmented by the
graph's own block index,
:meth:`~repro.synthpop.graph.PersonLocationGraph.block_visit_index`) —
and summing overlap minutes per person pair.

Because hazards in the main model add across simultaneous contacts,
the daily probability that infectious *u* transmits to susceptible *v*
depends only on the summed overlap ``w(u, v)``:

    p(u→v) = 1 − (1 − r·ρ·σ)^w(u,v)

so the projection is lossless for SEIR-style models whose coefficients
don't vary within a day — the property the distribution-level oracle
(:mod:`repro.validate.external`) relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.des import blocked_pairwise_exposures
from repro.synthpop.graph import PersonLocationGraph

__all__ = ["ContactGraph", "project_contact_graph"]


@dataclass
class ContactGraph:
    """Symmetric person–person contact network in CSR form.

    ``indices[indptr[p]:indptr[p+1]]`` are the neighbours of person
    ``p``; ``weights`` aligns with ``indices`` and holds co-presence
    minutes per day.  Every undirected edge is stored twice (u→v and
    v→u) with equal weight; there are no self-loops.
    """

    n_persons: int
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray
    name: str = "contact"
    _degree: np.ndarray | None = field(default=None, repr=False)

    @property
    def n_edges(self) -> int:
        """Number of undirected edges."""
        return int(self.indices.size) // 2

    @property
    def degrees(self) -> np.ndarray:
        """Contact-partner count per person."""
        if self._degree is None:
            self._degree = np.diff(self.indptr)
        return self._degree

    @property
    def total_weight(self) -> float:
        """Sum of undirected edge weights (co-presence minutes)."""
        return float(self.weights.sum()) / 2.0

    def neighbors(self, person: int) -> tuple[np.ndarray, np.ndarray]:
        """``(neighbour_ids, weights)`` of one person."""
        lo, hi = int(self.indptr[person]), int(self.indptr[person + 1])
        return self.indices[lo:hi], self.weights[lo:hi]

    def edge_list(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each undirected edge once as ``(u, v, w)`` with ``u < v``."""
        src = np.repeat(np.arange(self.n_persons, dtype=np.int64), self.degrees)
        keep = src < self.indices
        return src[keep], self.indices[keep].astype(np.int64), self.weights[keep]

    def validate(self) -> None:
        """Check the structural invariants; raise ``ValueError`` on breakage."""
        if self.indptr.shape[0] != self.n_persons + 1:
            raise ValueError("indptr length must be n_persons + 1")
        if self.indices.shape[0] != self.weights.shape[0]:
            raise ValueError("indices/weights length mismatch")
        if np.any(np.diff(self.indptr) < 0) or int(self.indptr[-1]) != self.indices.size:
            raise ValueError("indptr is not a valid CSR pointer")
        if self.indices.size == 0:
            return
        if self.indices.min() < 0 or self.indices.max() >= self.n_persons:
            raise ValueError("neighbour id out of range")
        if np.any(self.weights <= 0):
            raise ValueError("edge weights must be positive")
        src = np.repeat(np.arange(self.n_persons, dtype=np.int64), self.degrees)
        if np.any(src == self.indices):
            raise ValueError("self-loop present")
        # Symmetry: the multiset of (u, v, w) equals the multiset of
        # (v, u, w).  Adjacency lists are sorted by neighbour id, so a
        # canonical sort of both orientations must agree exactly.
        fwd = np.lexsort((self.indices, src))
        rev = np.lexsort((src, self.indices))
        if not (
            np.array_equal(src[fwd], self.indices[rev])
            and np.array_equal(self.indices[fwd], src[rev])
            and np.allclose(self.weights[fwd], self.weights[rev])
        ):
            raise ValueError("adjacency is not symmetric")


def project_contact_graph(graph: PersonLocationGraph) -> ContactGraph:
    """Project a visit graph onto its person–person contact network.

    Every ordered pair of distinct-person visits sharing a
    ``(location, sublocation)`` block with positive interval overlap
    contributes its overlap minutes to the pair's edge weight; multiple
    co-presences (same or different locations) accumulate.

    >>> from repro.synthpop import PopulationConfig, generate_population
    >>> g = generate_population(PopulationConfig(n_persons=50), 0)
    >>> c = project_contact_graph(g)
    >>> c.validate(); c.n_persons
    50
    """
    every = np.ones(graph.n_visits, dtype=bool)
    order, ptr, _ = graph.block_visit_index()
    block_id = np.repeat(np.arange(ptr.size - 1), np.diff(ptr))
    a_idx, b_idx, o_start, o_end = blocked_pairwise_exposures(
        order, block_id, graph.visit_start, graph.visit_end, every, every
    )
    pu = graph.visit_person[a_idx].astype(np.int64)
    pv = graph.visit_person[b_idx].astype(np.int64)
    # All-True masks enumerate each co-present visit pair in both
    # orientations; keeping u < v keeps each exactly once and drops
    # same-person co-presence (a person cannot infect themself).
    keep = pu < pv
    pu, pv = pu[keep], pv[keep]
    overlap = (o_end[keep] - o_start[keep]).astype(np.float64)

    n = graph.n_persons
    if pu.size == 0:
        return ContactGraph(
            n_persons=n,
            indptr=np.zeros(n + 1, dtype=np.int64),
            indices=np.empty(0, dtype=np.int64),
            weights=np.empty(0, dtype=np.float64),
            name=f"{graph.name}-contact",
        )

    # Aggregate duplicate pairs, then mirror to a symmetric edge set.
    key = pu * n + pv
    uniq, inv = np.unique(key, return_inverse=True)
    w = np.bincount(inv, weights=overlap, minlength=uniq.size)
    eu, ev = uniq // n, uniq % n
    src = np.concatenate([eu, ev])
    dst = np.concatenate([ev, eu])
    ww = np.concatenate([w, w])
    order = np.lexsort((dst, src))
    src, dst, ww = src[order], dst[order], ww[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return ContactGraph(
        n_persons=n,
        indptr=indptr,
        indices=dst,
        weights=ww,
        name=f"{graph.name}-contact",
    )
