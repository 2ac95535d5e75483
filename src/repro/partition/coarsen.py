"""Multilevel coarsening via heavy-edge matching.

Standard METIS-style coarsening (Karypis & Kumar): visit vertices in a
random order; each unmatched vertex matches its unmatched neighbour
connected by the heaviest edge (heavy-edge matching maximises the edge
weight removed from the graph, which keeps cuts visible at coarse
levels).  Matched pairs contract into one coarse vertex whose weight
vector is the sum and whose edges merge by weight.

Coarsening stops when the graph is small enough for initial
partitioning or when matching stalls (common on star-like social
graphs — a hub's neighbours all want the hub).

Where :func:`repro.core.ckernel.available`, the matching (after its
``rng.permutation``, drawn here) and the contraction run as C loops
that reproduce the ones below bit for bit; the loops here are their
definition and the fallback without a compiler.  The matching loop
reads one adjacency entry at a time, which on an ``ndarray`` builds a
NumPy scalar per read: it walks the CSR columns through ``memoryview``
objects (plain ints, no copy) and keeps ``match`` in a list.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import observe
from repro.partition.csr import CSRGraph

__all__ = ["CoarseLevel", "heavy_edge_matching", "contract", "coarsen_graph"]


@dataclass
class CoarseLevel:
    """One level of the multilevel hierarchy."""

    graph: CSRGraph
    #: fine-vertex -> coarse-vertex map into the *next* (coarser) level.
    coarse_map: np.ndarray | None = None


def heavy_edge_matching(graph: CSRGraph, rng: np.random.Generator) -> np.ndarray:
    """Return ``match[v]`` = matched partner (or ``v`` if unmatched)."""
    from repro.core import ckernel  # here: importing the partitioner loads no repro.core

    n = graph.n_vertices
    order = rng.permutation(n)
    if ckernel.available():
        match = ckernel.heavy_edge_matching(graph, order)
    else:
        match = np.array(_matching(graph, order.tolist()), dtype=np.int64)
    if observe.enabled():
        observe.counter("partition.hem_matched", np.count_nonzero(match != np.arange(n)))
    return match


def _matching(graph: CSRGraph, order: list[int]) -> list[int]:
    """:func:`heavy_edge_matching`'s loop over the vertices in ``order``."""
    xadj = memoryview(graph.xadj)
    adjncy = memoryview(graph.adjncy)
    adjwgt = memoryview(graph.adjwgt)
    match = [-1] * graph.n_vertices
    for v in order:
        if match[v] != -1:
            continue
        best, best_w = -1, -1
        e0, e1 = xadj[v], xadj[v + 1]
        for u, w in zip(adjncy[e0:e1], adjwgt[e0:e1]):
            # first heaviest unmatched neighbour: strict >, adjacency order
            if w > best_w and match[u] == -1 and u != v:
                best, best_w = u, w
        if best == -1:
            match[v] = v
        else:
            match[v] = best
            match[best] = v
    return match


def contract(graph: CSRGraph, match: np.ndarray) -> tuple[CSRGraph, np.ndarray]:
    """Contract matched pairs; return (coarse graph, fine→coarse map)."""
    from repro.core import ckernel

    if ckernel.available():
        *arrays, coarse_map = ckernel.contract(graph, match)
        return CSRGraph(*arrays), coarse_map
    n = graph.n_vertices
    # Number coarse vertices: pair representative = min(v, match[v]).
    rep = np.minimum(np.arange(n), match)
    uniq, coarse_map = np.unique(rep, return_inverse=True)
    nc = uniq.size
    # Coarse vertex weights (bincount sums in float64: exact below 2**53).
    cvwgt = np.empty((nc, graph.ncon), dtype=np.int64)
    for c in range(graph.ncon):
        cvwgt[:, c] = np.bincount(coarse_map, weights=graph.vwgt[:, c], minlength=nc)
    # Coarse edges: map endpoints, drop intra-pair edges, merge parallels.
    src = np.repeat(np.arange(n), np.diff(graph.xadj))
    cu = coarse_map[src]
    cv = coarse_map[graph.adjncy]
    keep = cu < cv  # one direction only, drops self (contracted) edges
    coarse = CSRGraph.from_edge_list(nc, cu[keep], cv[keep], graph.adjwgt[keep], cvwgt)
    return coarse, coarse_map


@observe.traced("partition.coarsen")
def coarsen_graph(
    graph: CSRGraph,
    rng: np.random.Generator,
    coarsen_to: int = 200,
    min_reduction: float = 0.95,
    max_levels: int = 30,
) -> list[CoarseLevel]:
    """Build the multilevel hierarchy; ``levels[0]`` is the input graph.

    Stops when the coarsest graph has ≤ ``coarsen_to`` vertices, when a
    level shrinks by less than ``1 - min_reduction``, or after
    ``max_levels`` levels.
    """
    levels = [CoarseLevel(graph)]
    current = graph
    for _ in range(max_levels):
        if current.n_vertices <= coarsen_to:
            break
        match = heavy_edge_matching(current, rng)
        coarse, cmap = contract(current, match)
        if coarse.n_vertices >= current.n_vertices * min_reduction:
            break
        levels[-1].coarse_map = cmap
        levels.append(CoarseLevel(coarse))
        current = coarse
    return levels
