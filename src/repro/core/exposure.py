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
three interchangeable kernels:

* ``"compiled"`` (the default where :func:`repro.core.ckernel.available`)
  — C from the walk to the per-``(location, person)`` hazard sums
  (:mod:`repro.core.ckernel`), no column gather, no per-pair array;
* ``"flat"`` (the default without a C toolchain) — the columns in
  ascending row order (:func:`_block_filter`), blocked pair enumeration
  (:func:`~repro.core.des.blocked_pairwise_exposures`), hazard
  accumulation per ``(location, person)`` slot and one batched
  keyed-uniform draw (:meth:`~repro.util.rng.RngFactory.keyed_uniforms`)
  for every exposed person at once — the compiled kernel's tail too;
* ``"grouped"`` — the reference formulation: a Python loop over
  locations, a per-location S×I cross product masked by sublocation
  after materialisation, and one keyed ``Generator`` per exposed
  person.

All kernels produce bit-identical results — same infection events in
the same order, same statistics — which ``repro validate
--diff-kernels`` and the differential oracle certify, so the default
changes speed, never an epidemic (``benchmarks/ladder``'s
``seq_dense_compiled`` and ``seq_dense_flat`` measure the two).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro import observe
from repro.core import ckernel
from repro.core.des import blocked_pairwise_exposures, pairwise_exposures
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
    """The visits that can transmit today — what the numpy kernels are
    handed.

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
        library loads, else ``"flat"`` — see the module docstring.  All
        three are bit-for-bit equivalent.

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
                impl = _flat_kernel if kernel == "flat" else _grouped_kernel
                impl(result, c, graph, disease, transmission, day, rng_factory, collect_stats)
        obs_span.set(visits=n_visits, infections=len(result.records))
    return result


def _slice_rows(ptr: np.ndarray, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions ``ptr[i]:ptr[i+1]`` for each ``i`` of ``ids``, end to
    end, and the length of each of those slices."""
    counts = ptr[ids + 1] - ptr[ids]
    first = np.cumsum(counts) - counts  # where each slice starts in the output
    return np.repeat(ptr[ids] - first, counts) + np.arange(int(counts.sum())), counts


def _walk(
    graph, health_state: np.ndarray, disease: DiseaseModel,
    owned: np.ndarray | None, removed: np.ndarray | None, events: Counter | None,
) -> tuple[int, tuple[np.ndarray, np.ndarray] | None]:
    """The filter stage: ``(n_visits, walked)``, the visits processed and
    today's candidate rows, block-major, with the CSR ``bptr`` over their
    blocks (None when nothing can transmit).

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
        walk = ckernel.block_walk if ckernel.available() else _numpy_walk
        rows, bptr, walk_rows = walk(graph, health_state, disease, owned, removed)
    observe.counter("exposure.walk_rows", walk_rows)
    observe.counter("exposure.active_blocks", bptr.size - 1)
    observe.counter("exposure.candidates", rows.size)
    return n_visits, ((rows, bptr) if rows.size else None)


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
    inf_rows, _ = _slice_rows(graph.person_visit_slices(), carriers)
    if owned is not None:
        inf_rows = inf_rows[owned[graph.visit_location[inf_rows]]]
    if removed is not None:
        inf_rows = inf_rows[~removed[inf_rows]]
    walk_rows = inf_rows.size
    blocks = distinct(sub_off[graph.visit_location[inf_rows]] + graph.visit_subloc[inf_rows])
    pos, counts = _slice_rows(ptr, blocks)
    rows = index[pos]
    owner = np.repeat(np.arange(blocks.size), counts)  # index into `blocks`
    walk_rows += rows.size
    if removed is not None:  # the rows of those blocks that happen today
        today = ~removed[rows]
        rows, owner = rows[today], owner[today]
    states = health_state[graph.visit_person[rows]]
    sus = disease.is_susceptible[states]
    has_sus = np.zeros(blocks.size, dtype=bool)  # has_inf holds by construction
    has_sus[owner[sus]] = True
    keep = has_sus[owner] & (disease.is_susceptible | disease.is_infectious)[states]
    rows, owner = rows[keep], owner[keep]
    bptr = np.zeros(np.count_nonzero(has_sus) + 1, dtype=np.int64)
    np.cumsum(np.bincount(owner, minlength=blocks.size)[has_sus], out=bptr[1:])
    return rows, bptr, int(walk_rows)


def _block_filter(
    graph, health_state: np.ndarray, disease: DiseaseModel,
    owned: np.ndarray | None, removed: np.ndarray | None, events: Counter | None,
) -> tuple[int, Candidates | None]:
    """``(n_visits, candidates)`` for the numpy kernels:
    :func:`_walk`, with the columns back in **ascending rows** and the
    block-major order kept as ``order`` / ``block``.  The flat kernel
    adds in candidate order, and block-major is *not* bit-exact: a
    susceptible in room 3 at 09:00 and room 0 at 14:00 (both active)
    adds two partial sums into one slot, differing in the last bit.
    """
    n_visits, walked = _walk(graph, health_state, disease, owned, removed, events)
    if walked is None:
        return n_visits, None
    rows, bptr = walked
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
    result: LocationPhaseResult, rows: np.ndarray, bptr: np.ndarray, graph,
    health_state: np.ndarray, disease: DiseaseModel, transmission: TransmissionModel, day: int,
    rng_factory: RngFactory, collect_stats: bool,
) -> None:
    """The walk's rows to the slot sums in one C loop
    (:func:`repro.core.ckernel.accumulate_exposures`), then the flat
    kernel's tail.

    Bit-identical to ``"flat"`` with no global sort back to ascending
    rows: a slot's hazard sum only sees that slot's rows, all in one
    location, so it is enough that the C loop visits each location's
    susceptible candidates in ascending row order, each with its block's
    infectious partners in block order — the order ``np.bincount`` adds
    the flat kernel's sorted pairs in.  The visit table is person-sorted,
    so a run of equal persons is one slot, and slots come out in the flat
    kernel's ``np.unique`` ``(location, person)`` order; ``first_minute``
    (a min) and ``pair_count`` (an integer) do not depend on order.
    Every transcendental runs through the other kernels' numpy paths.
    """
    with observe.span("exposure.pairs"):
        # Per (infectious state, susceptible state) hazard of one overlap
        # minute, computed by the same TransmissionModel call (same clip,
        # same log1p inputs) the flat kernel makes per pair.
        n_states = len(disease.states)
        haz_table = transmission.hazard(
            1.0, np.repeat(disease.infectivity, n_states), np.tile(disease.susceptibility, n_states)
        )
        keys, total_h, first_minute, pair_count = ckernel.accumulate_exposures(
            rows, bptr, graph, health_state, disease, haz_table
        )
    if keys.size == 0:
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
