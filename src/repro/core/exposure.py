"""Location-phase exposure computation shared by all execution modes.

The sequential reference simulator and the chare-parallel runtime both
delegate the location phase (paper step 3) to
:func:`compute_infections`; because transmission draws are keyed by
``(day, location, person)``, the outcome is independent of how the
locations are grouped into LocationManagers — the property that makes
the parallel execution reproduce the sequential one exactly.

People interact only inside a sublocation (paper §III-C, the fact
splitLoc rests on), so the phase first finds the :class:`Candidates` —
susceptible or infectious rows of a ``(location, sublocation)`` block
that holds both today — by walking from the infectious persons through
the graph's block index (:func:`_block_filter`; it never reads the
other rows), and gathers the columns for those rows only.  The walk
meets the candidates block by block and hands that segmentation on
with them, so no kernel sorts candidates by ``(location,
sublocation)``.  Three interchangeable kernels then consume them:

* ``"flat"`` (default) — sublocation-blocked pair enumeration over the
  walk's segmentation (:func:`~repro.core.des.blocked_pairwise_exposures`),
  hazard accumulation per ``(location, person)`` slot and one batched
  keyed-uniform draw (:meth:`~repro.util.rng.RngFactory.keyed_uniforms`)
  for every exposed person at once;
* ``"grouped"`` — the reference formulation: a Python loop over
  locations, a per-location S×I cross product masked by sublocation
  after materialisation, and one keyed ``Generator`` per exposed
  person;
* ``"compiled"`` — the flat kernel's slots and tail, with the pair
  enumeration + hazard reduction replaced by one streaming C loop
  (:mod:`repro.core.ckernel`, built on demand via ``ctypes``) that
  never materialises a per-pair array.  Only usable when
  :func:`repro.core.ckernel.available` — no C toolchain means callers
  fall back to the pure-numpy kernels.

All kernels produce bit-identical results — same infection events in
the same order, same statistics — which ``repro validate
--diff-kernels`` and the differential oracle certify; ``"flat"`` is
much faster than ``"grouped"`` on heavy-tailed populations (see
``benchmarks/bench_exposure_kernel.py``) and ``"compiled"`` beats
``"flat"`` again by skipping the pair materialisation entirely.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro import observe
from repro.core.des import blocked_pairwise_exposures, pairwise_exposures
from repro.core.disease import DiseaseModel
from repro.core.transmission import TransmissionModel
from repro.spec import KERNELS  # defined where importing it is free
from repro.util.rng import RngFactory

__all__ = [
    "KERNELS",
    "DEFAULT_KERNEL",
    "InfectionEvent",
    "LocationPhaseResult",
    "compute_infections",
]

DEFAULT_KERNEL = "flat"


@dataclass(frozen=True)
class InfectionEvent:
    """One successful transmission — the paper's "infect" message."""

    person: int
    location: int
    minute: int  # earliest overlap end among the person's exposures here


@dataclass
class LocationPhaseResult:
    """Infections plus the dynamic-load statistics of the phase."""

    #: the phase's infect messages in emission order, one int64
    #: ``(person, location, minute)`` row each — the record layout the
    #: smp infect rings carry (``repro.smp.layout.INFECT_RECORD``)
    records: np.ndarray = field(default_factory=lambda: np.empty((0, 3), dtype=np.int64))
    #: per-location event counts (2 × processed visits), keyed by location id
    events: Counter = field(default_factory=Counter)
    #: per-location S×I interaction counts
    interactions: Counter = field(default_factory=Counter)

    @property
    def infections(self) -> list[InfectionEvent]:
        """Read-only object view of :attr:`records` for code that
        inspects events one at a time (oracle, invariant checker,
        tests); nothing on the run path builds it."""
        return [InfectionEvent(p, loc, m) for p, loc, m in self.records.tolist()]


@dataclass(frozen=True)
class Candidates:
    """The visits that can transmit today — what a kernel is handed.

    One entry per candidate visit, compacted, in ascending visit-row
    order (the order every hazard sum adds in), plus the block
    segmentation the walk found them in.
    """

    person: np.ndarray
    location: np.ndarray
    subloc: np.ndarray
    start: np.ndarray
    end: np.ndarray
    state: np.ndarray
    sus: np.ndarray  # bool: susceptible state
    inf: np.ndarray  # bool: infectious state
    order: np.ndarray  # block-major position -> candidate index
    block: np.ndarray  # dense block id per block-major position, from 0 up


def compute_infections(
    visit_rows: np.ndarray | None,
    graph,
    health_state: np.ndarray,
    disease: DiseaseModel,
    transmission: TransmissionModel,
    day: int,
    rng_factory: RngFactory,
    collect_stats: bool = False,
    kernel: str | None = None,
) -> LocationPhaseResult:
    """Run the location phase over the given visit rows.

    Parameters
    ----------
    visit_rows:
        Indices into ``graph``'s visit arrays — the visits that actually
        happen today (interventions already applied) — **ascending and
        distinct** (``ValueError`` otherwise: the block walk intersects
        by ``searchsorted`` and the exactness argument starts from row
        order), or None for every visit of the graph.  May span any
        subset of locations; callers split by location, never within
        one.  Pairs only need the rows of one ``(location,
        sublocation)`` block together, but a person's hazards add per
        *location* over every block of it they visit.
    graph:
        A :class:`~repro.synthpop.graph.PersonLocationGraph`.
    health_state:
        Current per-person PTTS state indices.
    collect_stats:
        Also count events/interactions per location.  ``events`` counts
        *every* handed-in row, so this is the one pass over all of them
        the phase still makes; the charm backend's load model needs it
        and keeps it, the sequential default does not pay it.
    kernel:
        One of :data:`KERNELS` (None = :data:`DEFAULT_KERNEL`) — see
        the module docstring.  All three are bit-for-bit equivalent.

    Notes
    -----
    Per (location, susceptible) the hazards of all S×I overlaps add and
    a single uniform keyed ``(LOCATION, day, location, person)`` decides
    infection — distributionally identical to per-pair Bernoulli trials
    and, crucially, order-independent.
    """
    kernel = DEFAULT_KERNEL if kernel is None else kernel
    if kernel not in KERNELS:
        raise ValueError(f"kernel must be one of {KERNELS}, got {kernel!r}")
    impl = {
        "flat": _flat_kernel,
        "grouped": _grouped_kernel,
        "compiled": _compiled_kernel,
    }[kernel]
    result = LocationPhaseResult()
    n_rows = graph.n_visits if visit_rows is None else int(visit_rows.size)
    with observe.span("exposure.compute", day=day, kernel=kernel, visits=n_rows) as obs_span:
        candidates = _block_filter(
            visit_rows, graph, health_state, disease, result.events if collect_stats else None
        )
        if candidates is not None:
            impl(result, candidates, graph, disease, transmission, day, rng_factory, collect_stats)
        obs_span.set(infections=len(result.records))
    return result


def _slice_rows(ptr: np.ndarray, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions ``ptr[i]:ptr[i+1]`` for each ``i`` of ``ids``, end to
    end, and the length of each of those slices."""
    counts = ptr[ids + 1] - ptr[ids]
    first = np.cumsum(counts) - counts  # where each slice starts in the output
    return np.repeat(ptr[ids] - first, counts) + np.arange(int(counts.sum())), counts


def _block_filter(
    visit_rows: np.ndarray | None, graph, health_state: np.ndarray, disease: DiseaseModel,
    events: Counter | None,
) -> Candidates | None:
    """Today's :class:`Candidates`, or None when nothing can transmit.

    A row is a candidate iff it is susceptible or infectious *and* its
    ``(location, sublocation)`` block holds at least one infectious and
    one susceptible visit today.  Dropping the rest changes no bit:

    1. a pair needs an S row and an I row of one block, so a dropped
       row is in no pair — the pair set is the same;
    2. the candidates come out in ascending row order, and every
       kernel visits susceptible rows in that order (the C loop, the
       flat kernel's ``argsort(kind="stable")``), so each ``(location,
       person)`` hazard sum adds the same doubles in the same order in
       all three kernels;
    3. the keys with at least one pair — hence every keyed draw — are
       unchanged;
    4. ``events`` (filled when not None) still counts *all* visit rows
       per location and ``interactions`` counts pairs, so the load
       model cannot move.

    Found by a walk over ``graph.block_visit_index()``, not by reading
    every row: rows of today's infectious persons → their distinct
    blocks → those blocks' rows (∩ ``visit_rows``) → S / I of those rows
    → blocks that also hold an S row.  O(rows of infectious persons +
    rows of their blocks); on a subset nothing is sized by the graph's
    visits, persons or blocks, and ``events`` is the one O(rows) pass.

    The walk meets rows block by block; block id ``sub_off[loc] + sub``
    is monotone in ``(loc, sub)`` and the CSR ascends inside a block, so
    that order *is* the stable ``(location, sublocation)`` sort of the
    candidates, handed on as ``Candidates.order`` / ``.block`` for the
    kernels to segment by.  The columns go back to **ascending rows**:
    block-major accumulation is *not* bit-exact.  A susceptible in room
    3 at 09:00 and room 0 at 14:00 (both active) adds two partial sums
    into one ``(location, person)`` slot, and in the other order they
    differ in the last bit.
    """
    n_rows = graph.n_visits if visit_rows is None else visit_rows.size
    observe.counter("exposure.visits", n_rows)
    if n_rows == 0:
        return None
    with observe.span("exposure.filter"):
        index, ptr, sub_off = graph.block_visit_index()
        if events is not None:
            vl = graph.visit_location if visit_rows is None else graph.visit_location[visit_rows]
            locs, counts = np.unique(vl, return_counts=True)
            events.update(dict(zip(locs.tolist(), (2 * counts).tolist())))
        if visit_rows is None:
            carriers = np.flatnonzero(disease.is_infectious[health_state])
            inf_rows, _ = _slice_rows(graph.person_visit_slices(), carriers)
        else:
            if not (visit_rows[1:] > visit_rows[:-1]).all():
                raise ValueError("visit_rows must be ascending and distinct")
            inf_rows = visit_rows[disease.is_infectious[health_state[graph.visit_person[visit_rows]]]]
        # distinct blocks by sort + neighbour compare (np.unique is 10x slower)
        blocks = np.sort(sub_off[graph.visit_location[inf_rows]] + graph.visit_subloc[inf_rows])
        first = np.ones(blocks.size, dtype=bool)
        np.not_equal(blocks[1:], blocks[:-1], out=first[1:])
        blocks = blocks[first]
        pos, counts = _slice_rows(ptr, blocks)
        rows = index[pos]
        owner = np.repeat(np.arange(blocks.size), counts)  # index into `blocks`
        observe.counter("exposure.walk_rows", inf_rows.size + rows.size)
        if visit_rows is not None:  # the rows of those blocks that happen today
            at = np.minimum(np.searchsorted(visit_rows, rows), n_rows - 1)
            today = visit_rows[at] == rows
            rows, owner = rows[today], owner[today]
        states = health_state[graph.visit_person[rows]]
        sus = disease.is_susceptible[states]
        has_sus = np.zeros(blocks.size, dtype=bool)  # has_inf holds by construction
        has_sus[owner[sus]] = True
        keep = has_sus[owner] & (disease.is_susceptible | disease.is_infectious)[states]
        rows, owner = rows[keep], owner[keep]  # block-major
        by_row = np.argsort(rows)  # rows are distinct: any sort kind
        order = np.empty(rows.size, dtype=np.int64)
        order[by_row] = np.arange(rows.size)
        block = (np.cumsum(has_sus) - 1)[owner]  # every has_sus block keeps a row
        rows = rows[by_row]
    observe.counter("exposure.active_blocks", int(np.count_nonzero(has_sus)))
    observe.counter("exposure.candidates", rows.size)
    if rows.size == 0:
        return None
    with observe.span("exposure.gather"):
        # Every column is read for candidate rows only; on a memmap
        # backing the other pages never enter RAM.
        person = graph.visit_person[rows]
        state = health_state[person]
        return Candidates(
            person=person, location=graph.visit_location[rows], subloc=graph.visit_subloc[rows],
            start=graph.visit_start[rows], end=graph.visit_end[rows],
            state=state, sus=disease.is_susceptible[state], inf=disease.is_infectious[state],
            order=order, block=block,
        )


def _slots(c: Candidates, n_persons: int) -> tuple[np.ndarray, np.ndarray]:
    """``(keys, slot)``: one accumulator slot per distinct ``(location,
    person)`` of the *susceptible* candidates, keys ascending (emission
    order); kernels read ``slot`` on susceptible rows only."""
    sus = np.flatnonzero(c.sus)
    key = c.location[sus] * np.int64(n_persons) + c.person[sus]
    keys, inv = np.unique(key, return_inverse=True)
    slot = np.zeros(c.sus.size, dtype=np.int64)
    slot[sus] = inv
    return keys, slot


def _draw_and_emit(
    result: LocationPhaseResult, keys: np.ndarray, total_h: np.ndarray,
    first_minute: np.ndarray, pair_count: np.ndarray, graph, collect_stats: bool,
    transmission: TransmissionModel, day: int, rng_factory: RngFactory,
) -> None:
    """The flat and compiled kernels' tail over the per-slot sums: keep
    the touched slots, count ``interactions`` per location, then one
    batched keyed uniform per exposed ``(location, person)``."""
    with observe.span("exposure.reduce"):
        touched = pair_count > 0
        keys, pair_count = keys[touched], pair_count[touched]
        locs = keys // graph.n_persons
        persons = keys - locs * graph.n_persons
        if collect_stats:  # keys ascend, so each location's slots are one run
            pair_locs, first = np.unique(locs, return_index=True)
            per_loc = np.add.reduceat(pair_count, first)
            result.interactions.update(dict(zip(pair_locs.tolist(), per_loc.tolist())))
        total_h, first_minute = total_h[touched], first_minute[touched]
    with observe.span("exposure.draw"):
        probs = transmission.probability(total_h)
        u = rng_factory.keyed_uniforms(RngFactory.LOCATION, day, locs, persons)
    with observe.span("exposure.emit"):
        hit = u < probs
        result.records = np.column_stack((persons[hit], locs[hit], first_minute[hit]))


def _flat_kernel(
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
        keys, slot = _slots(c, graph.n_persons)
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
    _draw_and_emit(
        result, keys, total_h, first_minute, pair_count, graph, collect_stats,
        transmission, day, rng_factory,
    )


def _compiled_kernel(
    result: LocationPhaseResult, candidates: Candidates, graph, disease: DiseaseModel,
    transmission: TransmissionModel, day: int, rng_factory: RngFactory, collect_stats: bool,
) -> None:
    """Flat kernel with the pair stage in C (:mod:`repro.core.ckernel`).

    Bit-identical to ``"flat"``: the C loop visits susceptible rows in
    ascending candidate order and each one's infectious partners in the
    walk's block-major order, so it adds the same doubles in the same
    order ``np.bincount`` does over the flat kernel's sorted pairs; and
    every transcendental (``log1p`` via the per-state hazard table,
    ``expm1`` in ``probability``, the keyed uniforms) still runs through
    the exact numpy code paths of the other kernels.
    """
    from repro.core import ckernel

    c = candidates
    with observe.span("exposure.sort"):
        keys, slot = _slots(c, graph.n_persons)
        # The walk's segmentation per candidate row, and each block's
        # infectious rows in block-major order — the partner order of
        # the flat enumeration.
        n_blocks = int(c.block[-1]) + 1
        row_block = np.empty(c.order.size, dtype=np.int64)
        row_block[c.order] = c.block
        inf_bm = c.inf[c.order]
        inf_rows = c.order[inf_bm]
        inf_off = np.zeros(n_blocks + 1, dtype=np.int64)
        np.cumsum(np.bincount(c.block[inf_bm], minlength=n_blocks), out=inf_off[1:])
        start, end, state = (
            np.ascontiguousarray(col, dtype=np.int64) for col in (c.start, c.end, c.state)
        )
        sus = np.ascontiguousarray(c.sus, dtype=np.uint8)

    with observe.span("exposure.pairs"):
        # Per (infectious state, susceptible state) hazard of one overlap
        # minute, computed by the same TransmissionModel call (same clip,
        # same log1p inputs) the flat kernel makes per pair.
        n_states = len(disease.states)
        inf_coef = np.repeat(disease.infectivity, n_states)
        sus_coef = np.tile(disease.susceptibility, n_states)
        haz_table = np.ascontiguousarray(
            transmission.hazard(1.0, inf_coef, sus_coef), dtype=np.float64
        )
        total_h = np.zeros(keys.size, dtype=np.float64)
        first_minute = np.full(keys.size, np.iinfo(np.int64).max, dtype=np.int64)
        pair_count = np.zeros(keys.size, dtype=np.int64)
        pairs = ckernel.accumulate_exposures(
            start, end, state, sus, slot, row_block, inf_rows, inf_off,
            haz_table, n_states, total_h, first_minute, pair_count,
        )
    if pairs == 0:
        return
    _draw_and_emit(
        result, keys, total_h, first_minute, pair_count, graph, collect_stats,
        transmission, day, rng_factory,
    )


def _grouped_kernel(
    result: LocationPhaseResult, candidates: Candidates, graph, disease: DiseaseModel,
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
