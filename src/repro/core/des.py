"""Per-location sequential discrete-event simulation (paper step 3).

Each location converts the visit messages it received into *arrive* and
*depart* events, executes them in time order, and computes the
interactions between each susceptible–infectious pair co-present in the
same sublocation.  People only interact within a sublocation — this is
the property that lets ``splitLoc`` divide a location without adding
communication edges (paper §III-C, Figure 6a).

Two equivalent implementations are provided:

* :class:`LocationDES` — the event-driven sweep, faithful to the
  paper's description and used as the semantic reference;
* :func:`pairwise_exposures` — a vectorised all-pairs interval-overlap
  computation for one location (used by the ``grouped`` exposure
  kernel);
* :func:`blocked_pairwise_exposures` — the same pair set for *all*
  locations at once, enumerated per ``(location, sublocation)`` block
  of a segmentation the caller already holds, so a heavy location
  never materialises pairs across sublocation boundaries, handed on in
  the ``flat`` exposure kernel's summation order (used by that kernel
  and the contact-graph projection).

Property-based tests assert all three produce identical interaction
sets.  The DES also reports the statistics the dynamic load model
consumes (paper §III-A): the number of arrive/depart events, the
number of interactions, and the sum of reciprocal interactions per
event.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Interaction",
    "DESStats",
    "LocationDES",
    "pairwise_exposures",
    "blocked_pairwise_exposures",
]


@dataclass(frozen=True)
class Interaction:
    """One susceptible×infectious co-presence within a sublocation.

    Indices refer to rows of the visit arrays handed to the DES.
    """

    sus_visit: int
    inf_visit: int
    overlap_start: int
    overlap_end: int

    @property
    def overlap(self) -> int:
        return self.overlap_end - self.overlap_start


@dataclass
class DESStats:
    """Per-location statistics feeding the load models.

    ``events`` is the arrive+depart count (2 × visits).  ``interactions``
    counts S×I pairs with positive overlap.  ``recip_interactions`` is
    Σ over arrival events of 1/(interactions computed at that event),
    taken over events that computed at least one interaction — our
    concretisation of the paper's "sum of the reciprocal of
    interactions" input to the dynamic model.
    """

    events: int = 0
    interactions: int = 0
    recip_interactions: float = 0.0


class LocationDES:
    """Event-driven interaction computation for one location.

    The sweep exploits that visit end times are known at arrival (no
    early departures mid-day), so every S×I overlap can be finalised at
    the later arrival of the pair: ``overlap = min(ends) − arrival``.
    Depart events still exist — they pop the visit from the occupancy
    set and count toward the event total — which keeps the control
    structure identical to the paper's DES formulation.
    """

    ARRIVE = 0
    DEPART = 1

    def __init__(self) -> None:
        self.stats = DESStats()

    def run(
        self,
        subloc: np.ndarray,
        start: np.ndarray,
        end: np.ndarray,
        is_susceptible: np.ndarray,
        is_infectious: np.ndarray,
    ) -> list[Interaction]:
        """Sweep one location's visits; return all S×I interactions.

        Parameters are per-visit arrays (any common length).  Visits that
        are neither susceptible nor infectious still generate events (the
        location cannot know a visitor is epidemiologically inert until
        it processes the visit) but produce no interactions.
        """
        n = len(start)
        self.stats = DESStats(events=2 * n)
        if n == 0:
            return []
        # Build the event list: (time, kind, visit). Sorting by (time,
        # kind) processes departures before arrivals at the same minute,
        # so zero-length overlaps are never generated.
        times = np.concatenate([start, end])
        kinds = np.concatenate(
            [np.full(n, self.ARRIVE, dtype=np.int8), np.full(n, self.DEPART, dtype=np.int8)]
        )
        visits = np.concatenate([np.arange(n), np.arange(n)])
        order = np.argsort(2 * times + 1 - kinds, kind="stable")  # departures first on ties
        present_sus: dict[int, set[int]] = {}
        present_inf: dict[int, set[int]] = {}
        out: list[Interaction] = []
        for idx in order:
            v = int(visits[idx])
            sl = int(subloc[v])
            if kinds[idx] == self.DEPART:
                present_sus.get(sl, set()).discard(v)
                present_inf.get(sl, set()).discard(v)
                continue
            t = int(times[idx])
            computed_here = 0
            if is_susceptible[v]:
                for i in present_inf.get(sl, ()):  # infectious already present
                    o_end = min(int(end[v]), int(end[i]))
                    if o_end > t:
                        out.append(Interaction(v, i, t, o_end))
                        computed_here += 1
                present_sus.setdefault(sl, set()).add(v)
            if is_infectious[v]:
                for s in present_sus.get(sl, ()):  # susceptibles already present
                    if s == v:
                        continue
                    o_end = min(int(end[v]), int(end[s]))
                    if o_end > t:
                        out.append(Interaction(s, v, t, o_end))
                        computed_here += 1
                present_inf.setdefault(sl, set()).add(v)
            if computed_here:
                self.stats.interactions += computed_here
                self.stats.recip_interactions += 1.0 / computed_here
        return out


def pairwise_exposures(
    subloc: np.ndarray,
    start: np.ndarray,
    end: np.ndarray,
    is_susceptible: np.ndarray,
    is_infectious: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorised S×I overlap computation for one location.

    Returns ``(sus_idx, inf_idx, overlap_start, overlap_end)`` — one row
    per interacting pair, same pair set as :class:`LocationDES.run`
    (order may differ).  Complexity is O(|S|·|I|) per sublocation but
    fully vectorised, which beats the Python-loop sweep by ~2 orders of
    magnitude on realistic location sizes.
    """
    sus = np.flatnonzero(is_susceptible)
    inf = np.flatnonzero(is_infectious)
    if sus.size == 0 or inf.size == 0:
        return (
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
        )
    # Broadcast S against I, masked to the same sublocation.
    s_grid = np.repeat(sus, inf.size)
    i_grid = np.tile(inf, sus.size)
    same_subloc = subloc[s_grid] == subloc[i_grid]
    not_self = s_grid != i_grid
    o_start = np.maximum(start[s_grid], start[i_grid])
    o_end = np.minimum(end[s_grid], end[i_grid])
    mask = same_subloc & not_self & (o_end > o_start)
    return (
        s_grid[mask].astype(np.int64),
        i_grid[mask].astype(np.int64),
        o_start[mask].astype(np.int64),
        o_end[mask].astype(np.int64),
    )


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

    The segmented counterpart of :func:`pairwise_exposures`: one call
    covers every location, and pairs are enumerated per ``(location,
    sublocation)`` block instead of per location.  The pair set is
    identical — people only interact within a sublocation — but a split
    or heavy location never materialises the cross-sublocation part of
    its S×I product, the same property splitLoc exploits, and the
    per-location Python loop disappears entirely.

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
