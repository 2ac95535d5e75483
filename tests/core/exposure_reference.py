"""Earlier candidate filters and kernels, kept verbatim — test oracles.

**The kernel names.**  :data:`KERNELS` is production's kernels plus
``"grouped"``, the per-location formulation that left ``src/``: a
Python loop over locations, a per-location S×I cross product
(:func:`~tests.core.des_reference.pairwise_exposures`) and one keyed
``Generator`` per exposed person.  It runs here only; a test case named
``"grouped"`` holds production's :func:`production_kernel` (``"flat"``)
to it, bit for bit, which is the contract every kernel keeps.

**The location-level filter and its three kernels** (first part).

``_compute_infections`` and the ``_*_kernel`` functions below are
what ``repro.core.exposure`` ran before the candidate filter moved from
per *location* to per ``(location, sublocation)`` block, kept verbatim:
a visit is a candidate when its **location** has an infectious and a
susceptible visitor, every column is gathered for every row, and each
kernel takes the ``cand`` mask plus nine full-length arrays.  They
*define* what the block filter must reproduce bit-for-bit
(``test_block_filter.py``); nothing under ``src/`` calls them.  The
compiled kernel's old C loop is gone from ``src/``, so ``"compiled"``
runs the reference flat kernel here, its definition by contract.

:func:`compute_infections` is the production wrapper's signature over
the reference body, so a test can monkeypatch it in for the production
function (``repro.core.day.compute_infections``).  The kernels still
append one ``InfectionEvent`` per infection, as they always did — to a
:class:`_ListSink` standing in for the ``LocationPhaseResult`` of their
day; the wrapper packs that list into today's ``records`` array.

**The linear sublocation-block filter** (second part, at the bottom).
``_block_filter`` is what ``repro.core.exposure._block_filter`` was
before it became a walk over the block CSR from the infectious persons:
one pass over *every* handed-in row, two ``n_blocks``-sized tables, no
index — the same :class:`Candidates` in the same order (plus the
``subloc`` column, :class:`LinearCandidates`), with the block
segmentation (``order`` / ``block``) built by :func:`_segmentation`,
the lexsort the kernels ran before the walk handed it on.  The first
oracle's flat kernel takes its pair segmentation from there too.
:func:`compute_infections_linear` is ``compute_infections`` as it stood
around it, handing those candidates to the *production* numpy kernels
(``"compiled"`` to the production flat kernel, its definition:
``test_block_walk.py``), and ``"grouped"`` to
:func:`_grouped_candidates_kernel`, production's grouped kernel over
those candidates as it stood when it left ``src/``, verbatim.

Both wrappers take the production signature — an ``owned`` location
mask and a ``removed`` visit mask, None for all / none — and run the
verbatim bodies over :func:`rows_of` them, the ascending row list every
owner used to hand in.

**The block-major pair enumerator** (third part).
:func:`blocked_pairwise_exposures` is ``repro.core.des``'s enumerator
before it returned pairs in summation order, verbatim: block-major,
susceptible-major within a block, enumerated by a div/mod of each pair's
rank within its block and compacted by boolean masks.  Both parts above
call it.  :func:`flat_kernel` is the production flat kernel that went
with it, verbatim but for the module prefix on production's helpers: a
stable argsort of the pairs by susceptible row restores the summation
order, and every pair's hazard is its own ``TransmissionModel.hazard``
call.  ``test_pair_order.py`` pins the production enumerator and kernel
to these two.
"""

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro import observe
from repro.core import exposure as production
from repro.core.disease import DiseaseModel
from repro.core.exposure import (
    Candidates,
    InfectionEvent,
    LocationPhaseResult,
)
from repro.core.transmission import TransmissionModel
from repro.util.rng import RngFactory

from .des_reference import pairwise_exposures

#: the kernels the references run: production's and ``"grouped"``
KERNELS = ("flat", "grouped", "compiled")


def production_kernel(kernel):
    """The production kernel a reference case runs against: itself, or
    ``"flat"`` for ``"grouped"``, which only the references have."""
    return "flat" if kernel == "grouped" else kernel


def pinned(compute, kernel):
    """``compute`` (a reference ``compute_infections``) with its
    ``kernel`` argument fixed to ``kernel``: monkeypatched in for
    ``repro.core.day.compute_infections``, a run on
    ``production_kernel(kernel)`` hands its location phase to the
    reference on ``kernel``."""

    def phase(*args, **kwargs):
        return compute(*args, **{**kwargs, "kernel": kernel})

    return phase


@dataclass
class _ListSink:
    infections: list[InfectionEvent] = field(default_factory=list)
    events: Counter = field(default_factory=Counter)
    interactions: Counter = field(default_factory=Counter)


def rows_of(graph, owned=None, removed=None):
    """The visit rows a mask-form call processes, ascending: the rows at
    ``owned`` locations that were not ``removed`` (None = all / none)."""
    keep = np.ones(graph.n_visits, dtype=bool)
    if owned is not None:
        keep &= owned[graph.visit_location]
    if removed is not None:
        keep &= ~removed
    return np.flatnonzero(keep)


def compute_infections(
    graph, health_state, disease, transmission, day, rng_factory, *,
    owned=None, removed=None, collect_stats=False, kernel=None,
):
    visit_rows = rows_of(graph, owned, removed)
    sink = _compute_infections(
        visit_rows, graph, health_state, disease, transmission, day,
        rng_factory, collect_stats, kernel,
    )
    return LocationPhaseResult(
        records=np.array(
            [(e.person, e.location, e.minute) for e in sink.infections], dtype=np.int64
        ).reshape(-1, 3),
        events=sink.events,
        interactions=sink.interactions,
    )


def _compute_infections(
    visit_rows: np.ndarray,
    graph,
    health_state: np.ndarray,
    disease: DiseaseModel,
    transmission: TransmissionModel,
    day: int,
    rng_factory: RngFactory,
    collect_stats: bool,
    kernel: str | None,
) -> LocationPhaseResult:
    kernel = "flat" if kernel is None else kernel  # every kernel gives the same bits
    if kernel not in KERNELS:
        raise ValueError(f"kernel must be one of {KERNELS}, got {kernel!r}")
    result = _ListSink()
    if visit_rows.size == 0:
        return result
    vp = graph.visit_person[visit_rows]
    vl = graph.visit_location[visit_rows]
    vs = graph.visit_subloc[visit_rows]
    vstart = graph.visit_start[visit_rows]
    vend = graph.visit_end[visit_rows]
    states = health_state[vp]
    sus_mask = disease.is_susceptible[states]
    inf_mask = disease.is_infectious[states]

    if collect_stats:
        locs, counts = np.unique(vl, return_counts=True)
        result.events.update({int(l): int(2 * c) for l, c in zip(locs, counts)})

    # Only locations with at least one infectious *and* one susceptible
    # visit can transmit; restrict the expensive pass to those.
    has_inf = np.zeros(graph.n_locations, dtype=bool)
    has_inf[vl[inf_mask]] = True
    has_sus = np.zeros(graph.n_locations, dtype=bool)
    has_sus[vl[sus_mask]] = True
    active_loc = has_inf & has_sus
    cand = active_loc[vl] & (sus_mask | inf_mask)
    if not cand.any():
        return result

    impl = {
        "flat": _flat_kernel,
        "grouped": _grouped_kernel,
        "compiled": _flat_kernel,  # bit-identical to flat by contract: its definition
    }[kernel]
    impl(
        result, cand, vp, vl, vs, vstart, vend, states, sus_mask, inf_mask,
        graph, disease, transmission, day, rng_factory, collect_stats,
    )
    return result


def _flat_kernel(
    result: LocationPhaseResult,
    cand: np.ndarray,
    vp: np.ndarray,
    vl: np.ndarray,
    vs: np.ndarray,
    vstart: np.ndarray,
    vend: np.ndarray,
    states: np.ndarray,
    sus_mask: np.ndarray,
    inf_mask: np.ndarray,
    graph,
    disease: DiseaseModel,
    transmission: TransmissionModel,
    day: int,
    rng_factory: RngFactory,
    collect_stats: bool,
) -> None:
    """Whole-visit-set vectorised kernel: no per-location Python loop."""
    idx = np.flatnonzero(cand)
    s_idx, i_idx, o_start, o_end = blocked_pairwise_exposures(
        *_segmentation(vl[idx], vs[idx]), vstart[idx], vend[idx], sus_mask[idx], inf_mask[idx]
    )
    if s_idx.size == 0:
        return
    # Restore the grouped kernel's pair order (ascending susceptible
    # row, infectious rows in block order within each) so per-person
    # hazard sums accumulate in the same sequence — float addition is
    # not associative, and bit-for-bit kernel equality is the contract.
    order = np.argsort(s_idx, kind="stable")
    s_idx, i_idx = s_idx[order], i_idx[order]
    o_end = o_end[order]
    overlap = (o_end - o_start[order]).astype(np.float64)

    if collect_stats:
        pair_locs, pair_counts = np.unique(vl[idx[s_idx]], return_counts=True)
        result.interactions.update(
            {int(l): int(c) for l, c in zip(pair_locs, pair_counts)}
        )

    hazards = transmission.hazard(
        overlap,
        disease.infectivity[states[idx[i_idx]]],
        disease.susceptibility[states[idx[s_idx]]],
    )
    # Segment-reduce per (location, person of the susceptible visit):
    # total hazard and earliest potential infection minute.
    key = vl[idx[s_idx]] * np.int64(graph.n_persons) + vp[idx[s_idx]]
    uniq_key, inv = np.unique(key, return_inverse=True)
    total_h = np.bincount(inv, weights=hazards, minlength=uniq_key.size)
    first_minute = np.full(uniq_key.size, np.iinfo(np.int64).max)
    np.minimum.at(first_minute, inv, o_end)
    probs = transmission.probability(total_h)
    locs = uniq_key // graph.n_persons
    persons = uniq_key - locs * graph.n_persons
    u = rng_factory.keyed_uniforms(RngFactory.LOCATION, day, locs, persons)
    for j in np.flatnonzero(u < probs):
        result.infections.append(
            InfectionEvent(
                person=int(persons[j]), location=int(locs[j]), minute=int(first_minute[j])
            )
        )


def _grouped_kernel(
    result: LocationPhaseResult,
    cand: np.ndarray,
    vp: np.ndarray,
    vl: np.ndarray,
    vs: np.ndarray,
    vstart: np.ndarray,
    vend: np.ndarray,
    states: np.ndarray,
    sus_mask: np.ndarray,
    inf_mask: np.ndarray,
    graph,
    disease: DiseaseModel,
    transmission: TransmissionModel,
    day: int,
    rng_factory: RngFactory,
    collect_stats: bool,
) -> None:
    """Reference kernel: per-location loop, per-person keyed Generators."""
    idx = np.flatnonzero(cand)
    order = idx[np.argsort(vl[idx], kind="stable")]
    loc_sorted = vl[order]
    boundaries = np.flatnonzero(np.diff(loc_sorted)) + 1
    inf_coef = disease.infectivity
    sus_coef = disease.susceptibility

    for group in np.split(order, boundaries):
        loc = int(vl[group[0]])
        s_idx, i_idx, o_start, o_end = pairwise_exposures(
            vs[group], vstart[group], vend[group], sus_mask[group], inf_mask[group]
        )
        if s_idx.size == 0:
            continue
        if collect_stats:
            result.interactions[loc] += int(s_idx.size)
        g_s = group[s_idx]
        g_i = group[i_idx]
        hazards = transmission.hazard(
            (o_end - o_start).astype(np.float64),
            inf_coef[states[g_i]],
            sus_coef[states[g_s]],
        )
        # Accumulate hazard and earliest potential infection minute per
        # susceptible person at this location.
        persons = vp[g_s]
        uniq_p, inv = np.unique(persons, return_inverse=True)
        total_h = np.bincount(inv, weights=hazards, minlength=uniq_p.size)
        first_minute = np.full(uniq_p.size, np.iinfo(np.int64).max)
        np.minimum.at(first_minute, inv, o_end)
        probs = transmission.probability(total_h)
        for j, p in enumerate(uniq_p):
            u = rng_factory.stream(RngFactory.LOCATION, day, loc, int(p)).random()
            if u < probs[j]:
                result.infections.append(
                    InfectionEvent(person=int(p), location=loc, minute=int(first_minute[j]))
                )


# ----------------------------------------------------------------------
# second oracle: the linear sublocation-block filter
# ----------------------------------------------------------------------
def compute_infections_linear(
    graph, health_state, disease, transmission, day, rng_factory, *,
    owned=None, removed=None, collect_stats=False, kernel=None,
):
    visit_rows = rows_of(graph, owned, removed)
    kernel = "flat" if kernel is None else kernel  # every kernel gives the same bits
    if kernel not in KERNELS:
        raise ValueError(f"kernel must be one of {KERNELS}, got {kernel!r}")
    impl = {
        "flat": production._flat_kernel,
        "grouped": _grouped_candidates_kernel,
        "compiled": production._flat_kernel,  # the compiled phase's definition
    }[kernel]
    result = LocationPhaseResult()
    with observe.span(
        "exposure.compute", day=day, kernel=kernel, visits=int(visit_rows.size)
    ) as obs_span:
        candidates = _block_filter(
            visit_rows, graph, health_state, disease, result.events if collect_stats else None
        )
        if candidates is not None:
            impl(result, candidates, graph, disease, transmission, day, rng_factory, collect_stats)
        obs_span.set(infections=len(result.records))
    return result


@dataclass(frozen=True)
class LinearCandidates(Candidates):
    """Production's :class:`Candidates` plus the ``subloc`` column it
    gathered until no production kernel read it: the grouped kernel's
    pair enumerator and the block checks in ``test_block_walk.py`` do."""

    subloc: np.ndarray


def _block_filter(
    visit_rows: np.ndarray, graph, health_state: np.ndarray, disease: DiseaseModel,
    events: Counter | None,
) -> LinearCandidates | None:
    observe.counter("exposure.visits", visit_rows.size)
    if visit_rows.size == 0:
        return None
    with observe.span("exposure.filter"):
        vp = graph.visit_person[visit_rows]
        states = health_state[vp]
        sus = disease.is_susceptible[states]
        inf = disease.is_infectious[states]
        vl = graph.visit_location[visit_rows]
        vs = graph.visit_subloc[visit_rows]
        if events is not None:
            locs, counts = np.unique(vl, return_counts=True)
            events.update(dict(zip(locs.tolist(), (2 * counts).tolist())))
        # Dense block id: sublocation s of location l is sub_off[l] + s,
        # sub_off the exclusive prefix sum of the sublocation counts —
        # O(n_locations), rebuilt per call, nothing kept on the graph.
        sub_off = np.cumsum(graph.location_n_sublocs, dtype=np.int64)
        n_blocks = int(sub_off[-1])
        sub_off -= graph.location_n_sublocs
        block = sub_off[vl] + vs
        has_inf = np.zeros(n_blocks, dtype=bool)
        has_inf[block[inf]] = True
        has_sus = np.zeros(n_blocks, dtype=bool)
        has_sus[block[sus]] = True
        active = has_inf & has_sus
        keep = np.flatnonzero(active[block] & (sus | inf))
    observe.counter("exposure.active_blocks", int(np.count_nonzero(active)))
    observe.counter("exposure.candidates", keep.size)
    if keep.size == 0:
        return None
    with observe.span("exposure.gather"):
        # Visit times are read for candidate rows only; on a memmap
        # backing the other pages never enter RAM.
        rows = visit_rows[keep]
        order, block = _segmentation(vl[keep], vs[keep])
        return LinearCandidates(
            person=vp[keep], location=vl[keep], subloc=vs[keep],
            start=graph.visit_start[rows], end=graph.visit_end[rows],
            state=states[keep], sus=sus[keep], inf=inf[keep], order=order, block=block,
        )


def _segmentation(location, subloc):
    """``(order, block)`` the way the kernels built it before the walk
    handed it on: a ``(location, sublocation)`` lexsort, then a block
    id from the new-block flags' cumsum."""
    order = np.lexsort((subloc, location))  # sorted position -> candidate row
    loc_s, sub_s = location[order], subloc[order]
    new_block = np.empty(order.size, dtype=bool)
    new_block[:1] = True
    np.not_equal(loc_s[1:], loc_s[:-1], out=new_block[1:])
    new_block[1:] |= sub_s[1:] != sub_s[:-1]
    return order, np.cumsum(new_block) - 1


def _grouped_candidates_kernel(
    result: LocationPhaseResult, candidates: LinearCandidates, graph, disease: DiseaseModel,
    transmission: TransmissionModel, day: int, rng_factory: RngFactory, collect_stats: bool,
) -> None:
    """Reference kernel: per-location loop, per-person keyed Generators."""
    c = candidates
    records: list[tuple[int, int, int]] = []
    with observe.span("exposure.sort"):
        order = np.argsort(c.location, kind="stable")
        boundaries = np.flatnonzero(np.diff(c.location[order])) + 1
    for group in np.split(order, boundaries):
        loc = int(c.location[group[0]])
        with observe.span("exposure.pairs"):
            s_idx, i_idx, o_start, o_end = pairwise_exposures(
                c.subloc[group], c.start[group], c.end[group], c.sus[group], c.inf[group]
            )
        if s_idx.size == 0:
            continue
        if collect_stats:
            result.interactions[loc] += int(s_idx.size)
        with observe.span("exposure.reduce"):
            hazards = transmission.hazard(
                (o_end - o_start).astype(np.float64),
                disease.infectivity[c.state[group[i_idx]]],
                disease.susceptibility[c.state[group[s_idx]]],
            )
            # Accumulate hazard and earliest potential infection minute
            # per susceptible person at this location.
            uniq_p, inv = np.unique(c.person[group[s_idx]], return_inverse=True)
            total_h = np.bincount(inv, weights=hazards, minlength=uniq_p.size)
            first_minute = np.full(uniq_p.size, np.iinfo(np.int64).max)
            np.minimum.at(first_minute, inv, o_end)
            probs = transmission.probability(total_h)
        with observe.span("exposure.draw"):  # draws and emits per person
            for j, p in enumerate(uniq_p):
                u = rng_factory.stream(RngFactory.LOCATION, day, loc, int(p)).random()
                if u < probs[j]:
                    records.append((int(p), loc, int(first_minute[j])))
    result.records = np.array(records, dtype=np.int64).reshape(-1, 3)


# ----------------------------------------------------------------------
# third oracle: the block-major pair enumerator and its flat kernel
# ----------------------------------------------------------------------
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
    ``block_visit_index()``): ``order`` lists visit indices grouped by
    block, ``block_id`` (non-decreasing) names each entry's block.  Each
    block's pairs come out susceptible-major, both sides in ``order``.

    Returns ``(sus_idx, inf_idx, overlap_start, overlap_end)``, indices
    into the per-visit arrays, one row per interacting pair with
    positive overlap (order may differ from the other implementations).
    """
    empty = np.empty(0, dtype=np.int64)
    # Positions (into `order`) of the susceptible/infectious members of
    # each block, plus per-block counts — the segmented S×I geometry.
    sus_pos = np.flatnonzero(is_susceptible[order])
    inf_pos = np.flatnonzero(is_infectious[order])
    if sus_pos.size == 0 or inf_pos.size == 0:
        return empty, empty, empty.copy(), empty.copy()
    n_blocks = int(block_id[-1]) + 1
    ns = np.bincount(block_id[sus_pos], minlength=n_blocks)
    ni = np.bincount(block_id[inf_pos], minlength=n_blocks)
    pair_counts = ns * ni
    total = int(pair_counts.sum())
    if total == 0:
        return empty, empty, empty.copy(), empty.copy()

    # Enumerate each block's ns×ni product without a Python loop: rank
    # every pair within its block, then div/mod by the block's |I|.
    pair_offset = np.cumsum(pair_counts) - pair_counts
    rank = np.arange(total, dtype=np.int64) - np.repeat(pair_offset, pair_counts)
    ni_of_pair = np.repeat(ni, pair_counts)
    s_local = rank // ni_of_pair
    i_local = rank - s_local * ni_of_pair
    s_idx = order[sus_pos[np.repeat(np.cumsum(ns) - ns, pair_counts) + s_local]]
    i_idx = order[inf_pos[np.repeat(np.cumsum(ni) - ni, pair_counts) + i_local]]

    o_start = np.maximum(start[s_idx], start[i_idx])
    o_end = np.minimum(end[s_idx], end[i_idx])
    # A visit that is somehow both susceptible and infectious must not
    # pair with itself (mirrors pairwise_exposures' not_self guard).
    mask = (o_end > o_start) & (s_idx != i_idx)
    return (
        s_idx[mask].astype(np.int64),
        i_idx[mask].astype(np.int64),
        o_start[mask].astype(np.int64),
        o_end[mask].astype(np.int64),
    )


def flat_kernel(
    result: LocationPhaseResult, candidates: Candidates, graph, disease: DiseaseModel,
    transmission: TransmissionModel, day: int, rng_factory: RngFactory, collect_stats: bool,
) -> None:
    """Whole-visit-set vectorised kernel: no per-location Python loop."""
    c = candidates
    with observe.span("exposure.pairs"):
        s_idx, i_idx, o_start, o_end = blocked_pairwise_exposures(
            c.order, c.block, c.start, c.end, c.sus, c.inf
        )
    if s_idx.size == 0:
        return
    with observe.span("exposure.sort"):
        # Restore the grouped kernel's pair order (ascending susceptible
        # row, infectious rows in block order within each) so per-person
        # hazard sums accumulate in the same sequence — float addition is
        # not associative, and bit-for-bit kernel equality is the contract.
        by_sus = np.argsort(s_idx, kind="stable")
        s_idx, i_idx = s_idx[by_sus], i_idx[by_sus]
        o_end = o_end[by_sus]
        overlap = (o_end - o_start[by_sus]).astype(np.float64)
        keys, slot = production._slots(c, graph.n_persons)
    with observe.span("exposure.reduce"):
        hazards = transmission.hazard(
            overlap,
            disease.infectivity[c.state[i_idx]],
            disease.susceptibility[c.state[s_idx]],
        )
        # Per slot, in pair order: total hazard, earliest potential
        # infection minute, pair count.
        pair_slot = slot[s_idx]
        total_h = np.bincount(pair_slot, weights=hazards, minlength=keys.size)
        first_minute = np.full(keys.size, np.iinfo(np.int64).max)
        np.minimum.at(first_minute, pair_slot, o_end)
        pair_count = np.bincount(pair_slot, minlength=keys.size)
    production._draw_and_emit(
        result, keys, total_h, first_minute, pair_count, graph, collect_stats,
        transmission, day, rng_factory,
    )
