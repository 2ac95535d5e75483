"""Scalar reference for the multilevel partitioner's inner loops — a test oracle.

These are ``fm_refine`` (with the ``move_gain`` / ``all_gains`` / ``_fits`` /
``_improves_balance`` / ``_side_weights`` helpers it called),
``rebalance``, ``heavy_edge_matching``, ``contract``, ``grow_bisection``
and ``_induced_subgraph`` as they stood before the partitioner's loops
moved onto Python lists and an incrementally maintained gain list, kept
verbatim: per-vertex NumPy scalars, ``move_gain`` recomputed at every
pop and push, boundary and gains re-derived for the whole graph on every
pass.  They *define* what the production code must reproduce — the same
part vector, the same match vector, the same generator state afterwards
(``test_gp_exact.py``); nothing under ``src/`` calls them.
"""

import heapq

import numpy as np

from repro.partition.csr import CSRGraph


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
    """Shape (2, ncon) weight totals."""
    w = np.zeros((2, graph.ncon), dtype=np.int64)
    np.add.at(w, part.astype(np.int64), graph.vwgt)
    return w


def _fits(
    side_w: np.ndarray, totals: np.ndarray, target_frac: float, ubfactor: float,
    vw: np.ndarray, src: int,
) -> bool:
    """Would moving a vertex with weights ``vw`` from ``src`` keep balance?"""
    dst = 1 - src
    frac = target_frac if dst == 0 else 1.0 - target_frac
    # Plain-Python loop: ncon is tiny (2) and this sits on FM's hot path.
    for c in range(totals.shape[0]):
        t = totals[c]
        if t == 0:
            continue
        limit = t * frac * ubfactor
        w = vw[c]
        if side_w[dst, c] + w > (limit if limit > w else w):
            return False
    return True


def fm_refine(
    graph: CSRGraph,
    part: np.ndarray,
    target_frac: float,
    ubfactor: float = 1.05,
    max_passes: int = 6,
) -> np.ndarray:
    """Refine a bisection in place; returns ``part`` for convenience."""
    totals = graph.total_vwgt()
    side_w = _side_weights(graph, part)
    for _ in range(max_passes):
        moved_any = False
        locked = np.zeros(graph.n_vertices, dtype=bool)
        # Seed the heap with current boundary vertices (gains vectorised).
        src_ids = np.repeat(np.arange(graph.n_vertices), np.diff(graph.xadj))
        boundary_mask = part[src_ids] != part[graph.adjncy]
        boundary = np.unique(src_ids[boundary_mask])
        gains0 = all_gains(graph, part)
        heap: list[tuple[int, int]] = [(-int(gains0[v]), int(v)) for v in boundary]
        heapq.heapify(heap)
        while heap:
            neg_g, v = heapq.heappop(heap)
            if locked[v]:
                continue
            g = move_gain(graph, part, v)
            if g != -neg_g:
                heapq.heappush(heap, (-g, v))
                continue
            if g < 0:
                break  # heap is sorted: nothing with positive gain remains
            src = int(part[v])
            vw = graph.vwgt[v]
            if g == 0 and not _improves_balance(side_w, totals, target_frac, vw, src):
                locked[v] = True
                continue
            if not _fits(side_w, totals, target_frac, ubfactor, vw, src):
                locked[v] = True
                continue
            part[v] = 1 - src
            side_w[src] -= vw
            side_w[1 - src] += vw
            locked[v] = True
            moved_any = True
            for e in range(graph.xadj[v], graph.xadj[v + 1]):
                u = int(graph.adjncy[e])
                if not locked[u]:
                    heapq.heappush(heap, (-move_gain(graph, part, u), u))
        if not moved_any:
            break
    return part


def _improves_balance(
    side_w: np.ndarray, totals: np.ndarray, target_frac: float, vw: np.ndarray, src: int
) -> bool:
    """Does moving vw off ``src`` reduce the worst constraint imbalance?"""
    tgt = (target_frac, 1.0 - target_frac)
    dst = 1 - src
    before = after = 0.0
    for c in range(totals.shape[0]):
        t = totals[c]
        if t == 0:
            continue
        for side in (0, 1):
            b = abs(side_w[side, c] / t - tgt[side])
            w = side_w[side, c] + (vw[c] if side == dst else -vw[c])
            a = abs(w / t - tgt[side])
            if b > before:
                before = b
            if a > after:
                after = a
    return after < before


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
        # the batch — acceptable: rebalance trades cut for feasibility).
        gains = all_gains(graph, part)[candidates]
        order = candidates[np.argsort(-gains, kind="stable")]
        moved = False
        for v in order:
            if side_w[src, worst_con] <= limits[src, worst_con]:
                break
            v = int(v)
            part[v] = 1 - src
            side_w[src] -= graph.vwgt[v]
            side_w[1 - src] += graph.vwgt[v]
            moved = True
        if not moved:
            break
    return part


def heavy_edge_matching(graph: CSRGraph, rng: np.random.Generator) -> np.ndarray:
    """Return ``match[v]`` = matched partner (or ``v`` if unmatched)."""
    n = graph.n_vertices
    match = np.full(n, -1, dtype=np.int64)
    order = rng.permutation(n)
    xadj, adjncy, adjwgt = graph.xadj, graph.adjncy, graph.adjwgt
    for v in order:
        if match[v] != -1:
            continue
        best, best_w = -1, -1
        for e in range(xadj[v], xadj[v + 1]):
            u = adjncy[e]
            if match[u] == -1 and u != v:
                w = adjwgt[e]
                if w > best_w:
                    best, best_w = u, w
        if best == -1:
            match[v] = v
        else:
            match[v] = best
            match[best] = v
    return match


def contract(graph: CSRGraph, match: np.ndarray) -> tuple[CSRGraph, np.ndarray]:
    """Contract matched pairs; return (coarse graph, fine→coarse map)."""
    n = graph.n_vertices
    # Number coarse vertices: pair representative = min(v, match[v]).
    rep = np.minimum(np.arange(n), match)
    uniq, coarse_map = np.unique(rep, return_inverse=True)
    nc = uniq.size
    # Coarse vertex weights.
    ncon = graph.ncon
    cvwgt = np.zeros((nc, ncon), dtype=np.int64)
    np.add.at(cvwgt, coarse_map, graph.vwgt)
    # Coarse edges: map endpoints, drop intra-pair edges, merge parallels.
    src = np.repeat(np.arange(n), np.diff(graph.xadj))
    cu = coarse_map[src]
    cv = coarse_map[graph.adjncy]
    keep = cu < cv  # one direction only, drops self (contracted) edges
    if not keep.any():
        coarse = CSRGraph(
            xadj=np.zeros(nc + 1, dtype=np.int64),
            adjncy=np.empty(0, dtype=np.int64),
            adjwgt=np.empty(0, dtype=np.int64),
            vwgt=cvwgt,
        )
        return coarse, coarse_map
    coarse = CSRGraph.from_edge_list(nc, cu[keep], cv[keep], graph.adjwgt[keep], cvwgt)
    return coarse, coarse_map


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
    part = np.ones(n, dtype=np.int8)
    totals = graph.total_vwgt().astype(np.float64)
    target = totals * target_frac
    acc = np.zeros_like(totals)
    in_region = np.zeros(n, dtype=bool)
    gain = np.zeros(n, dtype=np.float64)
    heap: list[tuple[float, int]] = [(0.0, seed_vertex)]
    enqueued = np.zeros(n, dtype=bool)
    enqueued[seed_vertex] = True
    while heap:
        # Stop when every constraint with any mass has reached target.
        if np.all((acc >= target) | (totals == 0)):
            break
        _, v = heapq.heappop(heap)
        if in_region[v]:
            continue
        # Skip if absorbing v would badly overshoot a constraint.
        vw = graph.vwgt[v].astype(np.float64)
        overshoot = (acc + vw) > np.maximum(target * 1.3, target + vw.max())
        if np.any(overshoot & (vw > 0)) and np.any(acc >= target):
            continue
        in_region[v] = True
        part[v] = 0
        acc += vw
        for e in range(graph.xadj[v], graph.xadj[v + 1]):
            u = graph.adjncy[e]
            if not in_region[u]:
                gain[u] += graph.adjwgt[e]
                heapq.heappush(heap, (-gain[u], u))
                enqueued[u] = True
    return part


def _induced_subgraph(graph: CSRGraph, mask: np.ndarray) -> CSRGraph:
    """Subgraph on ``mask`` vertices, renumbered densely."""
    ids = np.flatnonzero(mask)
    renum = np.full(graph.n_vertices, -1, dtype=np.int64)
    renum[ids] = np.arange(ids.size)
    src = np.repeat(np.arange(graph.n_vertices), np.diff(graph.xadj))
    keep = mask[src] & mask[graph.adjncy] & (src < graph.adjncy)
    if not keep.any():
        return CSRGraph(
            xadj=np.zeros(ids.size + 1, dtype=np.int64),
            adjncy=np.empty(0, dtype=np.int64),
            adjwgt=np.empty(0, dtype=np.int64),
            vwgt=graph.vwgt[ids].copy(),
        )
    return CSRGraph.from_edge_list(
        ids.size, renum[src[keep]], renum[graph.adjncy[keep]], graph.adjwgt[keep],
        graph.vwgt[ids],
    )
