"""The compiled pair loop's overlap filter against the flat kernel.

``add_pairs`` in ``repro.core.ckernel`` takes a susceptible visit's
partners in chunks of ``PAIR_CHUNK`` (128): it first keeps, without a
branch, the partners that overlap the visit and are not the visit itself,
then folds the kept pairs' hazards in partner order.  Each case below is
one shape that filter could get wrong — a chunk boundary, a touching
interval, a self pair, a re-add that crosses a chunk, an infinite hazard
on a pair that never overlaps — pinned to the definition, a pair-by-pair
fold in Python (keys, the ``total_h`` bytes, ``first_minute``,
``pair_count``).  The flat kernel is held to it everywhere; the compiled
kernel where the library builds.
"""

import numpy as np
import pytest

from repro.core import TransmissionModel, ckernel, exposure

from .test_block_filter import DISEASES
from .test_block_walk import _graph
from .test_compiled_kernel import _slot_sums

needs_ckernel = pytest.mark.skipif(
    not ckernel.available(), reason=f"no compiled kernel: {ckernel.build_error()}"
)
kernels = pytest.mark.parametrize("kernel", ["flat", pytest.param("compiled", marks=needs_ckernel)])

INFLUENZA, CARRIER = DISEASES["influenza"], DISEASES["carrier"]
S, I, A = (INFLUENZA.index[n]
           for n in ("susceptible", "infectious_symptomatic", "infectious_asymptomatic"))
CHUNK = 128


def _fold(graph, disease, health):
    """The slot sums by definition, one pair at a time: per ``(location,
    person)``, from +0.0, the person's susceptible visits by ascending
    row, each with the infectious visits of its room (other than itself)
    by ascending row that overlap it for a positive time."""
    table = exposure._hazard_table(disease, TransmissionModel(4e-3)).tolist()
    n = len(disease.states)
    person, loc, sub, start, end = (c.tolist() for c in (
        graph.visit_person, graph.visit_location, graph.visit_subloc,
        graph.visit_start, graph.visit_end))
    state = [int(health[p]) for p in person]
    rooms = {}
    for q in range(graph.n_visits):
        if disease.is_infectious[state[q]]:
            rooms.setdefault((loc[q], sub[q]), []).append(q)
    slots = {}
    for r in range(graph.n_visits):
        if not disease.is_susceptible[state[r]]:
            continue
        key = loc[r] * graph.n_persons + person[r]
        acc, fmin, hits = slots.get(key, (0.0, None, 0))
        for q in rooms.get((loc[r], sub[r]), []):
            os_, oe = max(start[r], start[q]), min(end[r], end[q])
            if q != r and oe > os_:
                acc += float(oe - os_) * table[state[q] * n + state[r]]
                fmin, hits = oe if fmin is None else min(fmin, oe), hits + 1
        slots[key] = acc, fmin, hits
    keys = sorted(k for k, (_, _, hits) in slots.items() if hits)
    return [(keys, np.array([slots[k][0] for k in keys]).tobytes(),
             [slots[k][1] for k in keys], [slots[k][2] for k in keys])]


def _assert_like_the_fold(kernel, graph, disease, health):
    expected = _fold(graph, disease, health)
    assert expected[0][0]  # some slot has a pair
    assert _slot_sums(kernel, graph, disease, health, None, None) == expected
    return expected[0]


#: partner j overlaps the 400-800 visit when j sits on either side of a
#: chunk boundary, at every fifth j, and last; else it comes at or after 800
def _overlaps(j, n):
    return j % CHUNK in (0, 1, CHUNK - 2, CHUNK - 1) or j % 5 == 0 or j == n - 1


def _partner(j, n):
    if _overlaps(j, n):
        return 380 + j % 40, 420 + j % 300
    return 800 + j % 100, 900 + j % 100


@kernels
def test_more_partners_than_a_chunk(kernel):
    """One room, three susceptibles and 1,000 infectious partners (7.8
    chunks) in two states: the first susceptible overlaps a partner on
    each side of every chunk boundary and the last one, the second a
    scattered subset, the third all of them."""
    n = 1000
    visits = [(0, 0, 0, 400, 800), (1, 0, 0, 600, 700), (2, 0, 0, 0, 1440)]
    visits += [(3 + j, 0, 0, *_partner(j, n)) for j in range(n)]
    health = np.array([S, S, S] + [I if j % 7 else A for j in range(n)])
    keys, _, first_minute, pair_count = _assert_like_the_fold(
        kernel, _graph(visits, [1], 3 + n), INFLUENZA, health)
    assert keys == [0, 1, 2]
    assert pair_count[0] == sum(_overlaps(j, n) for j in range(n)) and pair_count[2] == n
    assert first_minute[0] == first_minute[2] == 420


@kernels
def test_touching_intervals_do_not_pair(kernel):
    """A partner that leaves as the visit starts, or comes as it ends,
    overlaps for no time: not a pair.  One minute's overlap is."""
    visits = [(0, 0, 0, 100, 200), (1, 0, 0, 50, 100), (2, 0, 0, 200, 300),
              (3, 0, 0, 150, 200), (4, 0, 0, 199, 250), (5, 0, 0, 0, 100)]
    keys, _, first_minute, pair_count = _assert_like_the_fold(
        kernel, _graph(visits, [1], 6), INFLUENZA, np.array([S, I, A, I, A, I]))
    assert (keys, first_minute, pair_count) == ([0], [200], [2])


@kernels
def test_a_carrier_does_not_pair_with_itself(kernel):
    """300 carriers (susceptible and infectious) in one room, all
    overlapping: each pairs with the 299 others, never with its own
    visit, which sits on a chunk boundary for carriers 127 and 128."""
    n, carrier = 300, CARRIER.index["carrier"]
    visits = [(p, 0, 0, 100 + p % 50, 900 - p % 70) for p in range(n)]
    keys, _, _, pair_count = _assert_like_the_fold(
        kernel, _graph(visits, [1], n), CARRIER, np.full(n, carrier))
    assert keys == list(range(n)) and pair_count == [n - 1] * n


@kernels
def test_a_re_add_crosses_chunk_boundaries(kernel):
    """Person 0 is in room 1 in the morning and room 0 in the afternoon:
    its slot is the morning's partial with the afternoon's 300 partners
    re-added onto it, pair by pair across two chunk boundaries.  Person 1
    is in room 0 once."""
    n0, n1 = 300, 200
    visits = [(0, 0, 1, 100, 500), (0, 0, 0, 600, 1000), (1, 0, 0, 650, 700)]
    visits += [(2 + j, 0, 0, *((590 + j % 30, 610 + j % 400) if _overlaps(j, n0)
                               else (1000 + j % 40, 1100)))
               for j in range(n0)]
    visits += [(2 + n0 + j, 0, 1, 50 + j % 100, 120 + j % 300) for j in range(n1)]
    health = np.array([S, S] + [I if j % 3 else A for j in range(n0 + n1)])
    keys, _, _, pair_count = _assert_like_the_fold(
        kernel, _graph(visits, [2], 2 + n0 + n1), INFLUENZA, health)
    assert keys == [0, 1]
    assert pair_count[0] == n1 + sum(_overlaps(j, n0) for j in range(n0))


@needs_ckernel
def test_an_infinite_hazard_on_pairs_that_never_overlap_stays_out():
    """``haz_table`` holds ``inf`` for asymptomatic → susceptible, and
    every asymptomatic visit comes after the susceptibles leave: the
    filter drops those partners before anything is multiplied, so the
    sums stay finite and equal the flat kernel's (0 × inf is NaN)."""
    n = 2 * CHUNK + 10
    visits = [(0, 0, 0, 100, 300), (1, 0, 0, 150, 250)]
    visits += [(2 + j, 0, 0, *((120 + j, 400) if j % 3 else (300 + j, 700))) for j in range(n)]
    health = np.array([S, S] + [I if j % 3 else A for j in range(n)])
    graph = _graph(visits, [1], 2 + n)
    table = exposure._hazard_table(INFLUENZA, TransmissionModel(4e-3))
    table[A * len(INFLUENZA.states) + S] = np.inf
    rows, bptr, _ = ckernel.block_walk(graph, health, INFLUENZA)
    keys, total_h, first_minute, pair_count, multi, partners = ckernel.accumulate_exposures(
        rows, bptr, graph, health, INFLUENZA, table)
    assert np.all(np.isfinite(total_h))
    by_key = np.argsort(keys)
    got = (keys[by_key].tolist(), total_h[by_key].tobytes(), first_minute[by_key].tolist(),
           pair_count[by_key].tolist())
    assert [got] == _slot_sums("flat", graph, INFLUENZA, health, None, None) == _fold(
        graph, INFLUENZA, health)
    assert (multi, partners) == (0, 2 * n)
