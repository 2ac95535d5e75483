"""Initial bisection of the coarsest graph.

Greedy graph growing (GGP, Karypis & Kumar): start a BFS region from a
random seed and absorb vertices — preferring those with the highest
*gain* (edge weight toward the region minus away) — until the region
reaches its target share of every constraint.  Several seeds are tried
and the best balanced bisection by cut wins.

Multi-constraint handling: a region is "full" in a constraint once it
holds its target fraction of it; growing stops when all constraints are
full (or no candidates remain).

The growing loop runs over Python floats (state in lists, CSR columns
through ``memoryview`` objects): it tests the two-entry weight vector
once per heap pop, and ``np.all`` / ``np.any`` / ``np.maximum`` on two
elements cost microseconds each.  Weights go through ``astype(float64)``
first, so every sum and comparison is the double an array expression
gives.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro import observe
from repro.partition.csr import CSRGraph

__all__ = ["grow_bisection", "initial_bisection"]


def _fullness(acc: list[float], target: list[float], totals: list[float]) -> tuple[bool, bool]:
    """Has every constraint with any mass reached its target; has any constraint?"""
    full, any_full = True, False
    for a, t, total in zip(acc, target, totals):
        if a >= t:
            any_full = True
        elif total != 0:
            full = False
    return full, any_full


def _overshoots(acc: list[float], vw: list[float], target: list[float]) -> bool:
    """Would absorbing weights ``vw`` badly overshoot a constraint they load?"""
    vw_max = max(vw)
    return any(w > 0 and a + w > max(t * 1.3, t + vw_max) for a, w, t in zip(acc, vw, target))


def grow_bisection(
    graph: CSRGraph,
    target_frac: float,
    seed_vertex: int,
) -> np.ndarray:
    """Grow part 0 from ``seed_vertex`` to ``target_frac`` of each constraint.

    Returns a 0/1 part vector.  Pure greedy: the frontier is a max-heap
    on gain; weights are accounted as vertices are absorbed.
    """
    n = graph.n_vertices
    xadj = memoryview(graph.xadj)
    adjncy = memoryview(graph.adjncy)
    adjwgt = memoryview(graph.adjwgt.astype(np.float64))
    vwgt = graph.vwgt.astype(np.float64)
    totals = graph.total_vwgt().astype(np.float64).tolist()
    target = [t * target_frac for t in totals]
    acc = [0.0] * len(totals)
    in_region = bytearray(n)
    gain = [0.0] * n
    heap: list[tuple[float, int]] = [(0.0, seed_vertex)]
    full, any_full = _fullness(acc, target, totals)
    while heap and not full:
        _, v = heapq.heappop(heap)
        if in_region[v]:
            continue
        vw = vwgt[v].tolist()
        # Skip if absorbing v would badly overshoot a constraint.
        if any_full and _overshoots(acc, vw, target):
            continue
        in_region[v] = 1
        for c, w in enumerate(vw):
            acc[c] += w
        full, any_full = _fullness(acc, target, totals)
        e0, e1 = xadj[v], xadj[v + 1]
        for u, w in zip(adjncy[e0:e1], adjwgt[e0:e1]):
            if not in_region[u]:
                gain[u] += w
                heapq.heappush(heap, (-gain[u], u))
    return 1 - np.frombuffer(in_region, dtype=np.int8)


@observe.traced("partition.initial")
def initial_bisection(
    graph: CSRGraph,
    target_frac: float,
    rng: np.random.Generator,
    n_tries: int = 4,
) -> np.ndarray:
    """Best-of-``n_tries`` greedy bisections (by cut, then balance)."""
    from repro.partition.quality import csr_edge_cut  # local import: avoid cycle

    n = graph.n_vertices
    if n == 0:
        return np.empty(0, dtype=np.int8)
    best_part = None
    best_key = None
    totals = graph.total_vwgt().astype(np.float64)
    for _ in range(max(1, n_tries)):
        seed = int(rng.integers(n))
        part = grow_bisection(graph, target_frac, seed)
        cut = csr_edge_cut(graph, part)
        w0 = graph.vwgt[part == 0].sum(axis=0).astype(np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            frac = np.where(totals > 0, w0 / np.maximum(totals, 1), target_frac)
        balance_err = float(np.abs(frac - target_frac).max())
        key = (round(balance_err, 3), cut)
        if best_key is None or key < best_key:
            best_key, best_part = key, part
    return best_part
