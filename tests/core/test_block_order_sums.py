"""The compiled accumulation's block-order sums against the flat kernel.

``repro_accumulate_exposures`` adds each susceptible visit's partners
from +0.0 while its block is at hand.  A person with one candidate visit
at a location takes that partial as the slot; a person with more has
the later visits' partners (by row) re-added onto the first visit's
partial, pair by pair, never a sum of partials.  Each case below is one
shape that path must get right, pinned to the flat kernel (keys, the
``total_h`` bytes, ``first_minute``, ``pair_count``) and to the
``exposure.multi_slots`` count of slots that took the re-add.  Slots
leave the C loop grouped by location but in no order within one; the
records must not notice.
"""

import struct

import numpy as np
import pytest

from repro import observe
from repro.core import TransmissionModel, ckernel, exposure
from repro.util.rng import RngFactory

from .test_block_filter import DISEASES
from .test_block_walk import _graph
from .test_compiled_kernel import _slot_sums

pytestmark = pytest.mark.skipif(
    not ckernel.available(), reason=f"no compiled kernel: {ckernel.build_error()}"
)

INFLUENZA, CARRIER = DISEASES["influenza"], DISEASES["carrier"]
S, I, A = (INFLUENZA.index[n]
           for n in ("susceptible", "infectious_symptomatic", "infectious_asymptomatic"))


#: persons 0 and 1 (susceptible) visit the two rooms of location 0 /
#: location 1 twice and the other location once; 2 and 3 shed
TWO_LOCATIONS = [
    (0, 0, 0, 100, 300), (0, 0, 1, 400, 600), (0, 1, 0, 700, 900),
    (1, 0, 1, 450, 550), (1, 1, 0, 650, 800), (1, 1, 1, 850, 990),
    (2, 0, 0, 50, 290), (2, 0, 1, 420, 580), (2, 1, 0, 690, 880), (2, 1, 1, 860, 960),
    (3, 0, 0, 150, 250), (3, 1, 1, 870, 1000),
]


def _multi_slots(graph, disease, health, owned=None, removed=None):
    with observe.observing() as obs:
        exposure.compute_infections(graph, health, disease, TransmissionModel(4e-3), 3,
                                    RngFactory(11), owned=owned, removed=removed,
                                    kernel="compiled")
    return obs.counters["exposure.multi_slots"]


def _assert_like_flat(graph, disease, health, multi_slots, owned=None, removed=None):
    """The compiled slot sums equal the flat kernel's (and some slot has
    a pair); returns them."""
    flat = _slot_sums("flat", graph, disease, health, owned, removed)
    assert flat and flat[0][0]
    assert _slot_sums("compiled", graph, disease, health, owned, removed) == flat
    assert _multi_slots(graph, disease, health, owned, removed) == multi_slots
    return flat[0]


def _hazard(minutes, state):
    tm = TransmissionModel(4e-3)
    return float(tm.hazard(float(minutes), INFLUENZA.infectivity[state], 1.0))


def test_cross_room_revisit():
    """Room 3 at 09:00, room 0 at 14:00: the block order meets the
    afternoon first; the slot still adds the morning's pair first."""
    graph = _graph([
        (0, 0, 3, 540, 600), (0, 0, 0, 840, 900),
        (1, 0, 3, 545, 600), (2, 0, 0, 800, 881), (3, 0, 0, 883, 960),
    ], [4], 4)
    h55, h41, h17 = _hazard(55, I), _hazard(41, A), _hazard(17, I)
    keys, total_h, first_minute, pair_count = _assert_like_flat(
        graph, INFLUENZA, np.array([S, I, A, I]), multi_slots=1)
    assert total_h == struct.pack("d", 0.0 + h55 + h41 + h17)
    assert total_h != struct.pack("d", h55 + (0.0 + h41 + h17))  # not a sum of partials
    assert (keys, first_minute, pair_count) == ([0], [600], [3])


def test_three_visits_two_in_one_room():
    """Row order room 1, room 0, room 1; block order room 0, then both
    room-1 visits.  The overlaps are picked so that block order and a
    sum of partials each change the last bit."""
    graph = _graph([
        (0, 0, 1, 480, 600), (0, 0, 0, 610, 700), (0, 0, 1, 720, 732),
        (1, 0, 1, 500, 800), (2, 0, 0, 600, 690), (3, 0, 1, 501, 900),
    ], [2], 4)
    a1, a3, b, c1, c3 = (_hazard(m, s) for m, s in ((100, I), (99, I), (80, A), (12, I), (12, I)))
    row = struct.pack("d", 0.0 + a1 + a3 + b + c1 + c3)
    assert row != struct.pack("d", 0.0 + b + a1 + a3 + c1 + c3)
    assert row != struct.pack("d", (0.0 + a1 + a3) + b + (0.0 + c1 + c3))
    keys, total_h, first_minute, pair_count = _assert_like_flat(
        graph, INFLUENZA, np.array([S, I, A, I]), multi_slots=1)
    assert (keys, total_h, first_minute, pair_count) == ([0], row, [600], [5])


def test_two_visits_at_each_of_two_locations():
    """Person 0 visits location 0 twice and location 1 once, person 1
    the other way round: the seen / twice bitmaps of location 0 must be
    clear again before location 1, or the single visits there would
    count as second ones."""
    graph = _graph(TWO_LOCATIONS, [2, 2], 4)
    keys, *_ = _assert_like_flat(graph, INFLUENZA, np.array([S, S, I, A]), multi_slots=2)
    assert keys == [0, 1, 4, 5]  # location * n_persons + person


def test_first_visit_by_row_has_no_overlap():
    """The first visit's room is active but its shedder comes after it
    left: a partial of +0.0 with no pair, onto which the later visit's
    pairs are added."""
    graph = _graph([
        (0, 0, 1, 100, 200), (0, 0, 0, 300, 400),
        (1, 0, 0, 310, 380), (1, 0, 1, 250, 350),
    ], [2], 2)
    keys, total_h, first_minute, pair_count = _assert_like_flat(
        graph, INFLUENZA, np.array([S, I]), multi_slots=1)
    assert (keys, total_h, first_minute, pair_count) == (
        [0], struct.pack("d", 0.0 + _hazard(70, I)), [380], [1])


def test_shedding_susceptible_in_a_multi_visit_slot():
    """Carriers are susceptible and infectious: a carrier's visit is
    nobody's partner for itself, but is for the others and for the same
    carrier's visit in another row of the room."""
    graph = _graph([
        (0, 0, 1, 100, 300), (0, 0, 0, 200, 400), (0, 0, 1, 350, 450),
        (1, 0, 1, 150, 250), (1, 0, 0, 220, 300),
        (2, 0, 0, 100, 500),
    ], [2], 3)
    carrier, infectious = CARRIER.index["carrier"], CARRIER.index["I"]
    keys, *_ = _assert_like_flat(graph, CARRIER, np.array([carrier, carrier, infectious]),
                                 multi_slots=2)
    assert keys == [0, 1]


@pytest.mark.parametrize("masks, multi_slots", [
    ((None, None), 2),
    ((np.array([False, True]), None), 1),  # location 1 only
    ((np.array([True, False]), None), 1),
    ((None, np.arange(12) == 5), 1),  # person 1's second visit at location 1
    ((np.array([False, True]), np.arange(12) == 5), 0),
])
def test_owned_and_removed_masks(masks, multi_slots):
    graph = _graph(TWO_LOCATIONS, [2, 2], 4)
    _assert_like_flat(graph, INFLUENZA, np.array([S, S, I, A]), multi_slots, *masks)


def test_records_do_not_depend_on_the_slot_order_within_a_location(small_graph):
    """Shuffle the C loop's slots inside each location: the records (and
    the statistics) come out byte-identical."""
    health = np.where(np.arange(small_graph.n_persons) % 5, S, I)
    rng = np.random.default_rng(3)
    real = ckernel.accumulate_exposures
    descents = []

    def shuffled(*args, **kwargs):
        keys, *sums, multi, partners = real(*args, **kwargs)
        loc = keys // small_graph.n_persons
        order = np.lexsort((rng.random(keys.size), loc))
        descents.append(int(np.count_nonzero(np.diff(keys[order]) < 0)))
        return (keys[order], *(a[order] for a in sums), multi, partners)

    def run():
        return exposure.compute_infections(
            small_graph, health, INFLUENZA, TransmissionModel(4e-3), 3, RngFactory(11),
            collect_stats=True, kernel="compiled")

    plain = run()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ckernel, "accumulate_exposures", shuffled)
        got = run()
    assert descents[0] > 10  # the shuffle moved slots out of key order
    assert len(plain.records) > 10
    assert got.records.tobytes() == plain.records.tobytes()
    assert got.interactions == plain.interactions and got.events == plain.events
