"""Fiduccia–Mattheyses boundary refinement for bisections.

After projecting a coarse bisection to a finer level, boundary vertices
are moved greedily to reduce the cut subject to the multi-constraint
balance tolerance.  The implementation is lazy-heap FM: a heap entry
carries the gain its vertex had when pushed and is re-queued at pop time
if the gain has changed since; each vertex moves at most once per pass,
and passes repeat until no move helps.  Gains are exact: one integer
list per call, seeded from :func:`all_gains` and updated along the moved
vertex's edges (see :func:`fm_refine`).

Where :func:`repro.core.ckernel.available`, every pass runs in one C
call that reproduces :func:`_fm_passes` bit for bit; the list-backed
loop here is its definition and the fallback without a compiler.  It
runs over Python ints (state in lists, CSR columns through
``memoryview`` objects), not arrays: a per-vertex step that indexes an
``ndarray`` pays for a NumPy scalar on every read.  Both loops do the
same arithmetic as the array definitions while every weight sum is
below 2**53, which
:meth:`~repro.partition.metis.MultilevelPartitioner.bisect` checks.

A separate :func:`rebalance` pass restores feasibility when projection
or initial partitioning left a constraint outside tolerance — it moves
minimum-cut-damage vertices out of the overweight side.
"""

from __future__ import annotations

import heapq
from itertools import compress

import numpy as np

from repro import observe
from repro.partition.csr import CSRGraph

__all__ = ["fm_refine", "rebalance", "move_gain", "all_gains"]


def move_gain(graph: CSRGraph, part: np.ndarray, v: int) -> int:
    """Cut reduction if ``v`` switched sides: external − internal weight."""
    e0, e1 = graph.xadj[v], graph.xadj[v + 1]
    nbrs = graph.adjncy[e0:e1]
    wts = graph.adjwgt[e0:e1]
    same = part[nbrs] == part[v]
    return int(wts[~same].sum() - wts[same].sum())


def all_gains(graph: CSRGraph, part: np.ndarray) -> np.ndarray:
    """Vectorised :func:`move_gain` for every vertex at once."""
    n = graph.n_vertices
    src = np.repeat(np.arange(n), np.diff(graph.xadj))
    cross = part[src] != part[graph.adjncy]
    signed = np.where(cross, graph.adjwgt, -graph.adjwgt)
    return np.bincount(src, weights=signed, minlength=n).astype(np.int64)


def _side_weights(graph: CSRGraph, part: np.ndarray) -> np.ndarray:
    """Shape (2, ncon) weight totals (integer sums throughout)."""
    w1 = graph.vwgt[part.astype(bool)].sum(axis=0, dtype=np.int64)
    return np.stack([graph.total_vwgt() - w1, w1])


def _fits(dst_w: list[int], vw: list[int], limits: list[float], totals: list[int]) -> bool:
    """Would the destination side, given ``vw`` too, stay within its limits
    (a vertex heavier than a limit by itself is held to its own weight)?"""
    for have, w, limit, t in zip(dst_w, vw, limits, totals):
        if t != 0 and have + w > (limit if limit > w else w):
            return False
    return True


def _imbalance(side_w: list[list[int]], totals: list[int], target_frac: float) -> float:
    """Worst ``|share - target|`` over both sides and every constraint with mass."""
    worst = 0.0
    for w0, w1, t in zip(side_w[0], side_w[1], totals):
        if t == 0:
            continue
        worst = max(worst, abs(w0 / t - target_frac), abs(w1 / t - (1.0 - target_frac)))
    return worst


def _improves_balance(
    side_w: list[list[int]], totals: list[int], target_frac: float,
    vw: list[int], src: int, before: float,
) -> bool:
    """Is :func:`_imbalance` with ``vw`` moved off ``src`` below ``before``,
    its current value?  It is a maximum: one term reaching ``before`` settles it."""
    tgt = (target_frac, 1.0 - target_frac)
    dst = 1 - src
    for src_w, dst_w, w, t in zip(side_w[src], side_w[dst], vw, totals):
        if t == 0:
            continue
        if abs((src_w - w) / t - tgt[src]) >= before or abs((dst_w + w) / t - tgt[dst]) >= before:
            return False
    return 0.0 < before  # no constraint with mass: 0.0 < 0.0


def _fm_passes(
    graph: CSRGraph, part: np.ndarray, target_frac: float, ubfactor: float, max_passes: int
):
    """:func:`fm_refine` as a generator: yields the live ``(part, gain)``
    lists after each pass (the exactness tests compare ``gain`` with
    :func:`all_gains` there) and writes ``part`` back when the passes end."""
    n = graph.n_vertices
    xadj = memoryview(graph.xadj)
    adjncy = memoryview(graph.adjncy)
    adjwgt = memoryview(graph.adjwgt)
    vwgt = graph.vwgt
    totals = graph.total_vwgt().tolist()
    side_w = _side_weights(graph, part).tolist()
    limits = [
        [t * frac * ubfactor for t in totals] for frac in (target_frac, 1.0 - target_frac)
    ]
    imbalance = None  # of side_w; computed on demand, dropped by a move
    p = part.tolist()
    gain = all_gains(graph, part).tolist()
    # ed[v] = number of v's adjacency entries that cross the cut.
    src_ids = np.repeat(np.arange(n), np.diff(graph.xadj))
    ed = np.bincount(src_ids[part[src_ids] != part[graph.adjncy]], minlength=n).tolist()
    del src_ids
    heappush, heappop = heapq.heappush, heapq.heappop
    n_passes = n_moves = n_pushes = 0
    for _ in range(max_passes):
        n_passes += 1
        moves_before = n_moves
        locked = bytearray(n)
        # Boundary vertices in ascending order, keyed by current gain.
        heap = [(-gain[v], v) for v in compress(range(n), ed)]
        heapq.heapify(heap)
        while heap:
            neg_g, v = heappop(heap)
            if locked[v]:
                continue
            g = gain[v]
            if g != -neg_g:
                heappush(heap, (-g, v))
                n_pushes += 1
                continue
            if g < 0:
                break  # heap is sorted: nothing with positive gain remains
            src = p[v]
            dst = 1 - src
            vw = vwgt[v].tolist()
            locked[v] = 1
            if g == 0:
                # A zero-gain move must reduce the worst imbalance.
                if imbalance is None:
                    imbalance = _imbalance(side_w, totals, target_frac)
                if not _improves_balance(side_w, totals, target_frac, vw, src, imbalance):
                    continue
            if not _fits(side_w[dst], vw, limits[dst], totals):
                continue
            p[v] = dst
            side_w[src] = [a - w for a, w in zip(side_w[src], vw)]
            side_w[dst] = [a + w for a, w in zip(side_w[dst], vw)]
            imbalance = None
            n_moves += 1
            e0, e1 = xadj[v], xadj[v + 1]
            gain[v] = -g
            ed[v] = e1 - e0 - ed[v]
            # Update every neighbour first, then push: a neighbour
            # listed twice is pushed twice with its final gain.
            nbrs = adjncy[e0:e1]
            for u, w in zip(nbrs, adjwgt[e0:e1]):
                if p[u] == dst:
                    gain[u] -= 2 * w
                    ed[u] -= 1
                else:
                    gain[u] += 2 * w
                    ed[u] += 1
            pushed_from = len(heap)
            for u in nbrs:
                if not locked[u]:
                    heappush(heap, (-gain[u], u))
            n_pushes += len(heap) - pushed_from
        yield p, gain
        if n_moves == moves_before:
            break
    part[:] = p
    observe.counter("partition.fm_passes", n_passes)
    observe.counter("partition.fm_moves", n_moves)
    observe.counter("partition.fm_pushes", n_pushes)


@observe.traced("partition.fm_refine")
def fm_refine(
    graph: CSRGraph,
    part: np.ndarray,
    target_frac: float,
    ubfactor: float = 1.05,
    max_passes: int = 6,
) -> np.ndarray:
    """Refine a bisection in place; returns ``part`` for convenience.

    The pop-time check and every push read ``gain[v]`` where
    :func:`move_gain` would be called, and get the same value: it is a
    function of ``part`` only, ``gain`` starts as :func:`all_gains`, and
    moving ``v`` flips each edge ``(v, u)`` of weight ``w`` between
    internal and external — ``gain[u]`` drops by ``2w`` if ``u`` is now on
    ``v``'s side and rises by ``2w`` otherwise, ``gain[v]`` changes sign.
    So the heap holds the same tuples and the moves are the same; the
    list outlives the pass, so the next one seeds its heap from the
    external-degree counts kept beside it.  ``part`` is an int8 0 / 1
    vector, as every stage of the bisection returns it.
    """
    from repro.core import ckernel

    if not ckernel.available():
        for _ in _fm_passes(graph, part, target_frac, ubfactor, max_passes):
            pass
        return part
    _, n_passes, n_moves, n_pushes = ckernel.fm_refine(
        graph, part, target_frac, ubfactor, max_passes
    )
    observe.counter("partition.fm_passes", n_passes)
    observe.counter("partition.fm_moves", n_moves)
    observe.counter("partition.fm_pushes", n_pushes)
    return part


@observe.traced("partition.rebalance")
def rebalance(
    graph: CSRGraph,
    part: np.ndarray,
    target_frac: float,
    ubfactor: float = 1.05,
) -> np.ndarray:
    """Force the bisection inside tolerance, minimising cut damage.

    Repeatedly moves the highest-gain vertex out of the side that most
    exceeds its limit, until all constraints fit (or no movable vertex
    remains — possible when one vertex alone exceeds a side's limit,
    which is exactly the heavy-node pathology splitLoc addresses).
    """
    totals = graph.total_vwgt()
    side_w = _side_weights(graph, part)
    limits = np.stack(
        [totals * target_frac * ubfactor, totals * (1.0 - target_frac) * ubfactor]
    )
    for _ in range(64):
        over = side_w.astype(np.float64) - limits
        over[:, totals == 0] = -1.0
        if np.all(over <= 0):
            break
        src = int(np.argmax(over.max(axis=1)))
        worst_con = int(np.argmax(over[src]))
        candidates = np.flatnonzero((part == src) & (graph.vwgt[:, worst_con] > 0))
        if candidates.size == 0:
            break
        # Move a batch of best-gain candidates (gains go stale within
        # the batch — acceptable: rebalance trades cut for feasibility):
        # the shortest prefix that brings the constraint inside its limit
        # (every candidate weighs something, so the side only gets lighter).
        gains = all_gains(graph, part)[candidates]
        order = candidates[np.argsort(-gains, kind="stable")]
        w = graph.vwgt[order, worst_con]
        still_on_src = side_w[src, worst_con] - (np.cumsum(w) - w)
        batch = order[: np.count_nonzero(still_on_src > limits[src, worst_con])]
        part[batch] = 1 - src
        moved_w = graph.vwgt[batch].sum(axis=0)
        side_w[src] -= moved_w
        side_w[1 - src] += moved_w
    return part
