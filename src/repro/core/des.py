"""Per-location sequential discrete-event simulation (paper step 3).

Each location converts the visit messages it received into *arrive* and
*depart* events, executes them in time order, and computes the
interactions between each susceptible–infectious pair co-present in the
same sublocation.  People only interact within a sublocation — this is
the property that lets ``splitLoc`` divide a location without adding
communication edges (paper §III-C, Figure 6a).

Visit end times are known at arrival, so every S×I overlap is
``[max(starts), min(ends))`` and the event sweep reduces to interval
overlap per sublocation.  :func:`blocked_pairwise_exposures` computes
that pair set for *all* locations at once, enumerated per ``(location,
sublocation)`` block of a segmentation the caller already holds, so a
heavy location never materialises pairs across sublocation boundaries,
handed on in the ``flat`` exposure kernel's summation order (used by
that kernel and the contact-graph projection).

The event-driven sweep itself and the per-location all-pairs form are
test references (``tests/core/des_reference.py``); property tests
assert all three produce identical interaction sets.
"""

from __future__ import annotations

import numpy as np

__all__ = ["blocked_pairwise_exposures"]


def slice_rows(ptr: np.ndarray, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions ``ptr[i]:ptr[i+1]`` for each ``i`` of ``ids``, end to
    end, and the length of each of those slices: a running sum of +1
    steps that jumps to the start of each non-empty slice."""
    lo, counts = ptr[ids], ptr[ids + 1] - ptr[ids]
    pos = np.ones(int(counts.sum()), dtype=np.int64)
    full = np.flatnonzero(counts)
    if full.size:  # each jump is from the previous slice's last position
        lo, n = lo[full], counts[full]
        pos[np.cumsum(n) - n] = lo - np.append(0, lo[:-1] + n[:-1] - 1)
        np.cumsum(pos, out=pos)
    return pos, counts


def _narrow(minutes: np.ndarray) -> np.ndarray:
    """A visit time column as int32 when every value fits (a day's
    minutes always do), else as it is: no value wraps."""
    if minutes.dtype.kind == "i" and minutes.dtype.itemsize > 4 and minutes.size:
        if -(2**31) <= minutes.min() and minutes.max() < 2**31:
            return minutes.astype(np.int32)
    return minutes


def blocked_pairwise_exposures(
    order: np.ndarray,
    block_id: np.ndarray,
    start: np.ndarray,
    end: np.ndarray,
    is_susceptible: np.ndarray,
    is_infectious: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """S×I overlaps for the *whole* visit set, blocked by sublocation.

    One call covers every location, and pairs are enumerated per
    ``(location, sublocation)`` block instead of per location.  The pair
    set is a per-location all-pairs product's — people only interact
    within a sublocation — but a split or heavy location never
    materialises the cross-sublocation part of its S×I product, the
    same property splitLoc exploits.

    The caller hands in the segmentation it already holds (the exposure
    walk's ``Candidates.order`` / ``.block``, or the graph's
    ``block_visit_index()``): ``order`` lists distinct visit indices
    grouped by block, ``block_id`` (non-decreasing) names each entry's
    block.

    Returns ``(sus_idx, inf_idx, overlap_start, overlap_end)``, int64
    indices into the per-visit arrays, one row per interacting pair with
    positive overlap, **by ascending susceptible index, each one's
    partners in ``order``**: the order the flat kernel adds hazards in.
    """
    empty = np.empty(0, dtype=np.int64)
    sus_pos = np.flatnonzero(is_susceptible[order])
    inf_pos = np.flatnonzero(is_infectious[order])
    if sus_pos.size == 0 or inf_pos.size == 0:
        return empty, empty, empty.copy(), empty.copy()
    start, end = _narrow(start), _narrow(end)
    # Block b's infectious visits are inf[inf_ptr[b]:inf_ptr[b + 1]].
    inf = order[inf_pos]
    inf_ptr = np.zeros(int(block_id[-1]) + 2, dtype=np.int64)
    np.cumsum(np.bincount(block_id[inf_pos], minlength=inf_ptr.size - 1), out=inf_ptr[1:])
    # Each susceptible, by ascending index, against its block's run.
    sus_pos = sus_pos[np.argsort(order[sus_pos], kind="stable")]
    part, n_part = slice_rows(inf_ptr, block_id[sus_pos])
    sus = order[sus_pos]
    o_start = np.maximum(np.repeat(start[sus], n_part), start[inf][part])
    o_end = np.minimum(np.repeat(end[sus], n_part), end[inf][part])
    ok = o_end > o_start
    if is_susceptible[inf].any():  # a visit that is S and I does not pair with itself
        ok &= np.repeat(sus, n_part) != inf[part]
    keep = np.flatnonzero(ok)
    return (
        np.repeat(sus, n_part)[keep].astype(np.int64, copy=False),
        inf[part[keep]].astype(np.int64, copy=False),
        o_start[keep].astype(np.int64, copy=False),
        o_end[keep].astype(np.int64, copy=False),
    )
