"""Location-phase exposure computation shared by all execution modes.

The sequential reference simulator and the chare-parallel runtime both
delegate the location phase (paper step 3) to
:func:`compute_infections`; because transmission draws are keyed by
``(day, location, person)``, the outcome is independent of how the
locations are grouped into LocationManagers — the property that makes
the parallel execution reproduce the sequential one exactly.

People interact only inside a sublocation (paper §III-C, the fact
splitLoc rests on), so the phase first finds the candidates —
susceptible or infectious rows of a ``(location, sublocation)`` block
that holds both today — by walking from the infectious persons through
the graph's block index (:func:`_walk`; it never reads the other rows)
and hands them on block-major, with a CSR over their blocks, to one of
two interchangeable kernels:

* ``"compiled"`` (the default where :func:`repro.core.ckernel.available`)
  — C from the walk to the per-``(location, person)`` hazard sums
  (:mod:`repro.core.ckernel`), no column gather, no per-pair array;
* ``"flat"`` (the default without a C toolchain) — the columns in
  ascending row order (:func:`_block_filter`), blocked pair enumeration
  (:func:`~repro.core.des.blocked_pairwise_exposures`) straight into
  summation order, hazard accumulation per ``(location, person)`` slot
  from the per-state-pair hazard table, and one batched keyed-uniform
  draw (:meth:`~repro.util.rng.RngFactory.keyed_uniforms`) for every
  exposed person at once — the compiled kernel's tail too.

Both kernels produce bit-identical results — same infection events in
the same order, same statistics — which ``repro validate
--diff-kernels`` and the differential oracle certify, so the default
changes speed, never an epidemic (``benchmarks/ladder``'s
``seq_dense_compiled`` and ``seq_dense_flat`` measure the two).  The
per-location formulation both replaced — a Python loop over locations,
a per-location S×I cross product and one keyed ``Generator`` per
exposed person — is kept as a test reference
(``tests/core/exposure_reference.py``), and the goldens pin all three
to the same bits.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro import observe
from repro.core import ckernel
from repro.core.des import blocked_pairwise_exposures, slice_rows
from repro.core.disease import DiseaseModel
from repro.core.transmission import TransmissionModel
from repro.spec import KERNELS  # defined where importing it is free
from repro.util import distinct
from repro.util.rng import RngFactory

__all__ = [
    "KERNELS",
    "InfectionEvent",
    "LocationPhaseResult",
    "compute_infections",
]


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
    #: smp record segments hold (``repro.smp.layout.INFECT_RECORD``)
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
    """The visits that can transmit today — what the flat kernel is
    handed.

    One entry per candidate visit, compacted, in ascending visit-row
    order (the order every hazard sum adds in), plus the block
    segmentation the walk found them in.
    """

    person: np.ndarray
    location: np.ndarray
    start: np.ndarray
    end: np.ndarray
    state: np.ndarray
    sus: np.ndarray  # bool: susceptible state
    inf: np.ndarray  # bool: infectious state
    order: np.ndarray  # block-major position -> candidate index
    block: np.ndarray  # dense block id per block-major position, from 0 up


def compute_infections(
    graph,
    health_state: np.ndarray,
    disease: DiseaseModel,
    transmission: TransmissionModel,
    day: int,
    rng_factory: RngFactory,
    *,
    owned: np.ndarray | None = None,
    removed: np.ndarray | None = None,
    collect_stats: bool = False,
    kernel: str | None = None,
) -> LocationPhaseResult:
    """Run the location phase over the owned locations' visits today.

    Parameters
    ----------
    graph:
        A :class:`~repro.synthpop.graph.PersonLocationGraph`.
    health_state:
        Current per-person PTTS state indices.
    owned / removed:
        Bool masks over locations / visit rows (checked by
        :func:`repro.core.ckernel.checked_masks`): the locations this
        call computes (None = all; owners split by location, never within
        one — a person's hazards add per location) and the visits
        interventions dropped today (None = none).
    collect_stats:
        Also count events/interactions per location; ``events`` is 2 ×
        the visits processed per owned location, ascending.
    kernel:
        One of :data:`KERNELS`; None is ``"compiled"`` where the C
        library loads, else ``"flat"`` — see the module docstring.  Both
        are bit-for-bit equivalent.

    Notes
    -----
    Per (location, susceptible) the hazards of all S×I overlaps add and
    a single uniform keyed ``(LOCATION, day, location, person)`` decides
    infection — distributionally identical to per-pair Bernoulli trials
    and, crucially, order-independent.
    """
    kernel = ("compiled" if ckernel.available() else "flat") if kernel is None else kernel
    if kernel not in KERNELS:
        raise ValueError(f"kernel must be one of {KERNELS}, got {kernel!r}")
    result = LocationPhaseResult()
    events = result.events if collect_stats else None
    with observe.span("exposure.compute", day=day, kernel=kernel) as obs_span:
        if kernel == "compiled":
            n_visits, walked = _walk(graph, health_state, disease, owned, removed, events)
            if walked is not None:
                _compiled_kernel(result, *walked, graph, health_state, disease, transmission,
                                 day, rng_factory, collect_stats)
        else:
            n_visits, c = _block_filter(graph, health_state, disease, owned, removed, events)
            if c is not None:
                _flat_kernel(result, c, graph, disease, transmission, day, rng_factory,
                             collect_stats)
        obs_span.set(visits=n_visits, infections=len(result.records))
    return result


def _walk(
    graph, health_state: np.ndarray, disease: DiseaseModel,
    owned: np.ndarray | None, removed: np.ndarray | None, events: Counter | None,
) -> tuple[int, tuple[np.ndarray, np.ndarray, tuple | None] | None]:
    """The filter stage: ``(n_visits, walked)``, the visits processed and
    today's candidate rows, block-major, with the CSR ``bptr`` over their
    blocks and the C walk's ``ckernel.phase_columns`` for the C
    accumulation (else None): ``(rows, bptr, columns)``, None when nothing
    can transmit.

    A row is a candidate iff it happens today at an owned location, is
    susceptible or infectious *and* its ``(location, sublocation)``
    block holds an infectious and a susceptible visit today.  Dropping
    the rest changes no bit: a pair needs an S and an I row of one
    block, so the pairs, the keys with a pair (hence every keyed draw)
    and ``interactions`` are the same, and ``events`` (when not None)
    still counts *all* processed rows per location.

    Found by a walk over ``graph.block_visit_index()``, not by reading
    every row: infectious persons' rows (owned, not removed) → their
    blocks → those blocks' rows not removed → blocks that also hold an
    S row; in C (:func:`repro.core.ckernel.block_walk`) or numpy
    (:func:`_numpy_walk`).
    """
    owned, removed = ckernel.checked_masks(graph, owned, removed)
    with observe.span("exposure.filter"):
        if owned is None and removed is None and events is None:
            n_visits = graph.n_visits
        else:  # per owned location: its range of the index, less the removed rows in it
            _, ptr, sub_off = graph.block_visit_index()
            loc_ptr = ptr[np.append(sub_off, ptr.size - 1)]  # location l: loc_ptr[l]:loc_ptr[l+1]
            locs = np.arange(graph.n_locations) if owned is None else np.flatnonzero(owned)
            counts = loc_ptr[locs + 1] - loc_ptr[locs]
            if removed is not None:
                counts = counts - np.bincount(
                    graph.visit_location[removed], minlength=graph.n_locations)[locs]
            n_visits = int(counts.sum())
            if events is not None:  # ascending locations, those with a visit
                some = counts > 0
                events.update(dict(zip(locs[some].tolist(), (2 * counts[some]).tolist())))
        observe.counter("exposure.visits", n_visits)
        if n_visits == 0:
            return 0, None
        if ckernel.available():
            columns = ckernel.phase_columns(graph, health_state, disease)
            rows, bptr, walk_rows = ckernel.block_walk(graph, health_state, disease, owned,
                                                       removed, columns=columns)
        else:
            columns = None
            rows, bptr, walk_rows = _numpy_walk(graph, health_state, disease, owned, removed)
    observe.counter("exposure.walk_rows", walk_rows)
    observe.counter("exposure.active_blocks", bptr.size - 1)
    observe.counter("exposure.candidates", rows.size)
    return n_visits, ((rows, bptr, columns) if rows.size else None)


def _numpy_walk(
    graph, health_state: np.ndarray, disease: DiseaseModel,
    owned: np.ndarray | None = None, removed: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """``(rows, bptr, walk_rows)``, the definition of
    :func:`repro.core.ckernel.block_walk`: the candidates by ascending
    block id ``sub_off[loc] + sub`` (the stable ``(location,
    sublocation)`` sort), ``rows[bptr[j]:bptr[j+1]]`` active block ``j``;
    ``walk_rows`` counts the carrier rows kept (owned, not removed) and
    all rows of the blocks they mark."""
    owned, removed = ckernel.checked_masks(graph, owned, removed)
    index, ptr, sub_off = graph.block_visit_index()
    carriers = np.flatnonzero(disease.is_infectious[health_state])
    inf_rows, _ = slice_rows(graph.person_visit_slices(), carriers)
    if owned is not None:
        inf_rows = inf_rows[np.flatnonzero(owned[graph.visit_location[inf_rows]])]
    if removed is not None:
        inf_rows = inf_rows[np.flatnonzero(~removed[inf_rows])]
    walk_rows = inf_rows.size
    blocks = distinct(sub_off[graph.visit_location[inf_rows]] + graph.visit_subloc[inf_rows])
    pos, counts = slice_rows(ptr, blocks)
    rows = index[pos]
    owner = np.repeat(np.arange(blocks.size), counts)  # index into `blocks`
    walk_rows += rows.size
    if removed is not None:  # the rows of those blocks that happen today
        today = np.flatnonzero(~removed[rows])
        rows, owner = rows[today], owner[today]
    states = health_state[graph.visit_person[rows]]
    has_sus = np.zeros(blocks.size, dtype=bool)  # has_inf holds by construction
    has_sus[owner[np.flatnonzero(disease.is_susceptible[states])]] = True
    can = (disease.is_susceptible | disease.is_infectious)[states]
    keep = np.flatnonzero(has_sus[owner] & can)
    rows, owner = rows[keep], owner[keep]
    bptr = np.zeros(np.count_nonzero(has_sus) + 1, dtype=np.int64)
    np.cumsum(np.bincount(owner, minlength=blocks.size)[has_sus], out=bptr[1:])
    return rows, bptr, int(walk_rows)


def _block_filter(
    graph, health_state: np.ndarray, disease: DiseaseModel,
    owned: np.ndarray | None, removed: np.ndarray | None, events: Counter | None,
) -> tuple[int, Candidates | None]:
    """``(n_visits, candidates)`` for the flat kernel:
    :func:`_walk`, with the columns back in **ascending rows** and the
    block-major order kept as ``order`` / ``block``.  The flat kernel
    adds in candidate order, and block-major is *not* bit-exact: a
    susceptible in room 3 at 09:00 and room 0 at 14:00 (both active)
    adds two partial sums into one slot, differing in the last bit.
    """
    n_visits, walked = _walk(graph, health_state, disease, owned, removed, events)
    if walked is None:
        return n_visits, None
    rows, bptr, _ = walked
    with observe.span("exposure.gather"):
        by_row = np.argsort(rows)  # rows are distinct: any sort kind
        order = np.empty(rows.size, dtype=np.int64)
        order[by_row] = np.arange(rows.size)
        block = np.repeat(np.arange(bptr.size - 1), np.diff(bptr))
        rows = rows[by_row]
        # Every column is read for candidate rows only; on a memmap
        # backing the other pages never enter RAM.
        person = graph.visit_person[rows]
        state = health_state[person]
        return n_visits, Candidates(
            person=person, location=graph.visit_location[rows],
            start=graph.visit_start[rows], end=graph.visit_end[rows],
            state=state, sus=disease.is_susceptible[state], inf=disease.is_infectious[state],
            order=order, block=block,
        )


def _slots(c: Candidates, n_persons: int) -> tuple[np.ndarray, np.ndarray]:
    """``(keys, slot)``: one accumulator slot per distinct ``(location,
    person)`` of the *susceptible* candidates, keys ascending (emission
    order); the kernel reads ``slot`` on susceptible rows only."""
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
    """The flat and compiled kernels' tail over the per-slot sums, slots
    grouped by ascending location: keep the touched slots, count
    ``interactions`` per location, then one batched keyed uniform per
    exposed ``(location, person)``; the hits go out by ascending key."""
    with observe.span("exposure.reduce"):
        touched = pair_count > 0
        keys, pair_count = keys[touched], pair_count[touched]
        locs = keys // graph.n_persons
        persons = keys - locs * graph.n_persons
        if collect_stats:  # each location's slots are one run
            pair_locs, first = np.unique(locs, return_index=True)
            per_loc = np.add.reduceat(pair_count, first)
            result.interactions.update(dict(zip(pair_locs.tolist(), per_loc.tolist())))
        total_h, first_minute = total_h[touched], first_minute[touched]
    with observe.span("exposure.draw"):
        probs = transmission.probability(total_h)
        u = rng_factory.keyed_uniforms(RngFactory.LOCATION, day, locs, persons)
    with observe.span("exposure.emit"):
        hit = np.flatnonzero(u < probs)
        hit = hit[np.argsort(keys[hit])]  # keys are distinct: any sort kind
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
    with observe.span("exposure.reduce"):
        # Pairs come by ascending susceptible row, partners in block
        # order: the per-location reference's sequence, so hazard sums
        # add in the same order (float addition is not associative).
        keys, slot = _slots(c, graph.n_persons)
        pair_state = c.state[i_idx] * np.int64(len(disease.states)) + c.state[s_idx]
        overlap = (o_end - o_start).astype(np.float64)
        hazards = overlap * _hazard_table(disease, transmission)[pair_state]
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


def _hazard_table(disease: DiseaseModel, transmission: TransmissionModel) -> np.ndarray:
    """Per (infectious state i, susceptible state s), at ``[i * n_states
    + s]``, the per-pair ``transmission.hazard`` call at 1.0 minute, so
    ``overlap * table[...]`` is that hazard bit for bit (``1.0 * x == x``)."""
    n_states = len(disease.states)
    return transmission.hazard(
        1.0, np.repeat(disease.infectivity, n_states), np.tile(disease.susceptibility, n_states)
    )


def _compiled_kernel(
    result: LocationPhaseResult, rows: np.ndarray, bptr: np.ndarray, columns: tuple | None,
    graph, health_state: np.ndarray, disease: DiseaseModel, transmission: TransmissionModel,
    day: int, rng_factory: RngFactory, collect_stats: bool,
) -> None:
    """The walk's rows to the slot sums in one C loop
    (:func:`repro.core.ckernel.accumulate_exposures`), then the flat
    kernel's tail.

    Bit-identical to ``"flat"`` without putting the candidates back in
    ascending rows.  A slot's hazard sum is one left fold from +0.0 over
    the person's susceptible visits at the location by ascending row,
    each with its block's infectious partners in block order (the order
    :func:`~repro.core.des.blocked_pairwise_exposures` pairs in).  The C
    loop adds each visit's partners from +0.0 while its block is at hand:
    for a person with one visit there that partial is the fold; for more,
    the later visits by row (one run: the visit table is person-sorted)
    add their pairs onto the first visit's partial one by one, never as a
    partial.  ``first_minute`` (a min) and ``pair_count`` do not depend
    on order, and :func:`_draw_and_emit` emits the hits by key, so slots
    may come in any order within a location.  Every transcendental runs
    through the flat kernel's numpy paths; ``columns`` is :func:`_walk`'s.
    """
    with observe.span("exposure.pairs"):
        keys, total_h, first_minute, pair_count, multi, partners = ckernel.accumulate_exposures(
            rows, bptr, graph, health_state, disease, _hazard_table(disease, transmission),
            columns=columns,
        )
    observe.counter("exposure.multi_slots", multi)
    observe.counter("exposure.partner_records", partners)
    if keys.size == 0:
        return
    _draw_and_emit(
        result, keys, total_h, first_minute, pair_count, graph, collect_stats,
        transmission, day, rng_factory,
    )

