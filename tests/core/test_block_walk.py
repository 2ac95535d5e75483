"""The block walk against the linear block filter it replaced.

Production finds the day's candidates by walking from the infectious
persons through ``PersonLocationGraph.block_visit_index()``;
``exposure_reference._block_filter`` is the one pass over every
handed-in row it replaced, verbatim, in front of the *production*
kernels (``compute_infections_linear``).  Same candidate rows in the
same (ascending) order means the kernels cannot tell the two apart, so
the first thing pinned is every :class:`Candidates` column — the
reference builds the block segmentation (``order`` / ``block``) by the
``(location, sublocation)`` lexsort the kernels ran before the walk
handed it on, so the walk's block-major order is pinned to it (the
sublocation column comes from the reference's ``LinearCandidates``:
no production kernel reads it, so production no longer gathers it);
then what a
caller sees (infections in order, ``events`` / ``interactions``, every
keyed draw, the hazard-sum bytes) on all three kernels (production
``flat`` against the reference's ``grouped``), for every form
the masks arrive in — ``None``, all-owned and none-removed, by-location
and random owned locations and removed rows, rows removed by an active
``SchoolClosure``; then whole runs on all three backends.

The case the walk could get wrong and the linear pass could not: a
person's hazards add per ``(location, person)`` over *every* room of
the location they visit, in candidate order.  The walk meets rows room
by room; if it handed them on that way, a susceptible who is in room 3
in the morning and room 0 in the afternoon would get the two partial
sums in the other order.  ``test_block_major_order_is_not_bit_exact``
shows that flips a last bit, which is why the walk sorts the columns
back to ascending rows and keeps block-major order only as the
segmentation.
"""

import contextlib
import dataclasses
import struct
import tempfile
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from repro import observe
from repro.core import Scenario, SequentialSimulator, TransmissionModel, ckernel
from repro.core import day as day_steps
from repro.core import exposure as production
from repro.core.disease import UNTREATED
from repro.core.interventions import DayContext, InterventionSchedule, SchoolClosure
from repro.core.parallel import ParallelEpiSimdemics
from repro.scenarios import registry
from repro.smp import SmpSimulator
from repro.spec import PartitionSpec, PopulationSpec, RunSpec, RuntimeSpec, execute
from repro.synthpop import PopulationConfig, generate_population_streamed
from repro.synthpop.graph import LocationType, PersonLocationGraph
from repro.util.rng import RngFactory

from . import exposure_reference
from .day_loop_reference import ReferenceDayLoop
from .exposure_reference import production_kernel
from .test_block_filter import DISEASES, _observable, kernels, phases, production_kernels

LINEAR = types.SimpleNamespace(compute_infections=exposure_reference.compute_infections_linear)
COLUMNS = [f.name for f in dataclasses.fields(production.Candidates)]
SEGMENTATION = ("order", "block")


def _graph(visits, n_sublocs, n_persons, location_type=None):
    """``visits``: (person, location, subloc, start, end), person-sorted."""
    p, l, s, a, b = (np.asarray(c, dtype=np.int64) for c in zip(*visits))
    n_sublocs = np.asarray(n_sublocs, dtype=np.int64)
    graph = PersonLocationGraph(
        name="walk", n_persons=n_persons, n_locations=n_sublocs.size,
        visit_person=p, visit_location=l, visit_subloc=s, visit_start=a, visit_end=b,
        location_n_sublocs=n_sublocs,
        location_type=(
            np.zeros(n_sublocs.size, dtype=np.int64) if location_type is None else location_type
        ),
        person_age=np.full(n_persons, 30, dtype=np.int64),
        person_home=np.zeros(n_persons, dtype=np.int64),
    )
    graph.validate()
    return graph


@st.composite
def walk_phases(draw):
    """The block filter's phases, with the masks in every form a backend
    hands in."""
    graph, disease, health, owned, removed = draw(phases())
    form = draw(st.sampled_from(["none", "all", "drawn", "drawn", "closure"]))
    if form == "none":  # the sequential day with no intervention active
        owned = removed = None
    elif form == "all":  # an smp worker that owns everything, nothing removed
        owned = np.ones(graph.n_locations, dtype=bool)
        removed = np.zeros(graph.n_visits, dtype=bool)
    elif form == "closure":  # odd locations are schools, closed today
        graph = dataclasses.replace(
            graph,
            location_type=np.where(
                np.arange(graph.n_locations) % 2, int(LocationType.SCHOOL), int(LocationType.HOME)
            ),
        )
        ctx = DayContext(
            day=3, graph=graph, disease=disease, health_state=health,
            treatment=np.full(graph.n_persons, UNTREATED, dtype=np.int32),
            prevalence=0.5, cumulative_attack=0.5, rng_factory=RngFactory(1),
        )
        removed = ~InterventionSchedule([SchoolClosure(day=0)]).visit_mask(ctx)
    return graph, disease, health, owned, removed


def _assert_same_candidates(graph, disease, health, owned, removed):
    _, got = production._block_filter(graph, health, disease, owned, removed, None)
    expected = exposure_reference._block_filter(
        exposure_reference.rows_of(graph, owned, removed), graph, health, disease, None
    )
    assert (got is None) == (expected is None)
    if got is not None:
        for name in COLUMNS:  # the reference builds `order` / `block` by lexsort
            a, b = getattr(got, name), getattr(expected, name)
            assert a.dtype == b.dtype and a.tolist() == b.tolist(), name
        assert got.order.tolist() == np.lexsort((expected.subloc, got.location)).tolist()
    return got, expected


# ----------------------------------------------------------------------
# one phase
# ----------------------------------------------------------------------
@given(walk_phases())
@settings(max_examples=300, deadline=None)
def test_walk_finds_the_linear_filters_candidates(phase):
    _assert_same_candidates(*phase)


@kernels
@given(walk_phases())
@settings(max_examples=150, deadline=None)
def test_walk_equals_linear_filter(kernel, phase):
    got = _observable(production, production_kernel(kernel), *phase)
    expected = _observable(LINEAR, kernel, *phase)
    for key, value in expected.items():
        assert got[key] == value, key


def _room_order_matters(phase):
    """A susceptible visits two *active* rooms of one location, the
    higher-numbered room first: row order and block order disagree."""
    graph, disease, health, owned, removed = phase
    if exposure_reference.rows_of(graph, owned, removed).size != graph.n_visits:
        return False
    state = health[graph.visit_person]
    sus, inf = disease.is_susceptible[state], disease.is_infectious[state]
    room = list(zip(graph.visit_location.tolist(), graph.visit_subloc.tolist()))
    active = {r for r, s in zip(room, sus) if s} & {r for r, i in zip(room, inf) if i}
    for r1 in np.flatnonzero(sus):
        for r2 in range(r1 + 1, graph.n_visits):
            if (
                graph.visit_person[r2] == graph.visit_person[r1]
                and room[r2][0] == room[r1][0] and room[r2][1] < room[r1][1]
                and room[r1] in active and room[r2] in active
            ):
                return True
    return False


def test_strategy_reaches_rooms_visited_against_their_numbering():
    find(walk_phases(), _room_order_matters, settings=settings(max_examples=5000, deadline=None))


#: one susceptible, in room 3 of location 0 at 09:00 and in room 0 at
#: 14:00; overlaps of 55, 41 and 17 minutes with three shedders
REVISIT = [
    (0, 0, 3, 540, 600), (0, 0, 0, 840, 900),
    (1, 0, 3, 545, 600),  # symptomatic, room 3, 55 min
    (2, 0, 0, 800, 881),  # asymptomatic, room 0, 41 min
    (3, 0, 0, 883, 960),  # symptomatic, room 0, 17 min
]


def _revisit():
    disease = DISEASES["influenza"]
    S, I, A = (
        disease.index[n]
        for n in ("susceptible", "infectious_symptomatic", "infectious_asymptomatic")
    )
    tm = TransmissionModel(4e-3)
    h55, h41, h17 = (
        float(tm.hazard(float(m), disease.infectivity[s], 1.0))
        for m, s in ((55, I), (41, A), (17, I))
    )
    return _graph(REVISIT, [4], 4), disease, np.array([S, I, A, I]), h55, h41, h17


@kernels
def test_hazards_add_in_row_order_across_rooms(kernel):
    graph, disease, health, h55, h41, h17 = _revisit()
    row_order = struct.pack("d", 0.0 + h55 + h41 + h17)
    assert row_order != struct.pack("d", 0.0 + h41 + h17 + h55)  # the case discriminates
    for masks in ((None, None), (np.ones(1, dtype=bool), np.zeros(5, dtype=bool))):
        _, candidates = _assert_same_candidates(graph, disease, health, *masks)
        assert candidates.subloc.tolist() == [3, 0, 3, 0, 0]  # ascending rows, not by room
        got = _observable(production, production_kernel(kernel), graph, disease, health, *masks)
        assert got["hazard_sums"] == row_order
        assert got == _observable(LINEAR, kernel, graph, disease, health, *masks)


def test_block_major_order_is_not_bit_exact():
    """Hand the flat kernel the same candidates room by room — the order
    the walk meets them in — and the one hazard sum changes its last
    bit: the walk's sort back to ascending rows is not optional."""
    graph, disease, health, h55, h41, h17 = _revisit()
    c, linear = _assert_same_candidates(graph, disease, health, None, None)
    by_room = np.lexsort((np.arange(c.person.size), linear.subloc, c.location))
    sums = []

    class Spy(TransmissionModel):
        def probability(self, total_hazard):
            sums.append(np.asarray(total_hazard).tobytes())
            return super().probability(total_hazard)

    for order in (np.arange(c.person.size), by_room):
        permuted = production.Candidates(
            **{n: getattr(c, n)[order] for n in COLUMNS if n not in SEGMENTATION},
            order=np.argsort(order)[c.order], block=c.block,  # the same blocks, renumbered rows
        )
        production._flat_kernel(
            production.LocationPhaseResult(), permuted, graph, disease, Spy(4e-3), 3,
            RngFactory(11), False,
        )
    assert sums == [struct.pack("d", 0.0 + h55 + h41 + h17), struct.pack("d", 0.0 + h41 + h17 + h55)]
    assert sums[0] != sums[1]


@kernels
@pytest.mark.parametrize("mix", ["no-infectious", "no-susceptible", "carrier"])
def test_degenerate_populations(small_graph, kernel, mix):
    """Nobody sheds; nobody can catch it; a state that does both."""
    disease = DISEASES["carrier" if mix == "carrier" else "influenza"]
    rng = np.random.default_rng(5)
    allowed = np.flatnonzero({
        "no-infectious": ~disease.is_infectious,
        "no-susceptible": ~disease.is_susceptible,
        "carrier": (disease.is_infectious & disease.is_susceptible) | disease.is_terminal,
    }[mix])
    health = rng.choice(allowed, small_graph.n_persons)
    for owned in (None, np.arange(small_graph.n_locations) % 3 == 1):
        _assert_same_candidates(small_graph, disease, health, owned, None)
        got = _observable(
            production, production_kernel(kernel), small_graph, disease, health, owned, None
        )
        assert got == _observable(LINEAR, kernel, small_graph, disease, health, owned, None)
        assert bool(got["infections"]) == (mix == "carrier")
        assert got["events"]  # every row still counts, whoever is in it


# ----------------------------------------------------------------------
# the walk in C against its numpy definition
# ----------------------------------------------------------------------
needs_ckernel = pytest.mark.skipif(
    not ckernel.available(), reason=f"no compiled kernel: {ckernel.build_error()}"
)


def _assert_walks_agree(graph, disease, health, owned, removed):
    """``ckernel.block_walk`` against ``exposure._numpy_walk``: equal
    ``rows`` / ``bptr`` bytes and ``walk_rows``, and equal counters when
    ``_walk`` runs on either; returns the C walk's ``(rows, bptr)``."""
    got = ckernel.block_walk(graph, health, disease, owned, removed)
    expected = production._numpy_walk(graph, health, disease, owned, removed)
    assert got[0].dtype == got[1].dtype == np.int64
    assert [got[0].tobytes(), got[1].tobytes(), got[2]] == [
        expected[0].tobytes(), expected[1].tobytes(), expected[2]
    ]
    counters = []
    for c_loop in (True, False):
        with pytest.MonkeyPatch.context() as mp, observe.observing() as obs:
            mp.setattr(ckernel, "available", lambda: c_loop)
            production._walk(graph, health, disease, owned, removed, None)
        counters.append(dict(obs.counters))
    assert counters[0] == counters[1]
    return got[:2]


@needs_ckernel
@given(walk_phases())
@settings(max_examples=300, deadline=None)
def test_c_walk_equals_numpy_walk(phase):
    _assert_walks_agree(*phase)


@needs_ckernel
def test_c_walk_on_generated_populations(tiny_graph, small_graph, wy_graph):
    disease = DISEASES["influenza"]
    S, I = disease.index["susceptible"], disease.index["infectious_symptomatic"]
    rng = np.random.default_rng(3)
    for graph in (tiny_graph, small_graph, wy_graph):
        health = rng.choice([S, I], graph.n_persons, p=[0.9, 0.1]).astype(np.int32)
        for owned, removed in (
            (None, None), (np.ones(graph.n_locations, dtype=bool), None),
            (np.arange(graph.n_locations) % 3 == 1, None),
            (None, rng.random(graph.n_visits) < 0.4),
            (rng.random(graph.n_locations) < 0.5, rng.random(graph.n_visits) < 0.4),
        ):
            rows_walked, bptr = _assert_walks_agree(graph, disease, health, owned, removed)
            assert bptr.size > 1 and rows_walked.size == bptr[-1]


@needs_ckernel
def test_c_walk_on_a_memmap_population(tmp_path):
    """int64 ``visit_location`` and int32 ``visit_subloc`` / times read
    where they lie on disk, then every column widened to int64."""
    graph = generate_population_streamed(
        PopulationConfig(n_persons=1000), 3, backing="memmap", block_persons=64, dir=tmp_path,
    )
    assert isinstance(graph.visit_location, np.memmap) and graph.visit_subloc.dtype == np.int32
    disease = DISEASES["influenza"]
    health = np.random.default_rng(4).choice(
        [disease.index["susceptible"], disease.index["infectious_symptomatic"]],
        graph.n_persons, p=[0.85, 0.15],
    ).astype(np.int32)
    wide = _unindexed(graph, **{
        name: getattr(graph, name).astype(np.int64)
        for name in ("visit_person", "visit_location", "visit_subloc", "visit_start", "visit_end")
    })
    by_location = np.arange(graph.n_locations) % 2 == 0
    for owned in (None, by_location):
        narrow = _assert_walks_agree(graph, disease, health, owned, None)
        wide_walk = _assert_walks_agree(wide, disease, health.astype(np.int64), owned, None)
        for got, expected in zip(wide_walk, narrow):
            assert got.tobytes() == expected.tobytes()


@needs_ckernel
@pytest.mark.parametrize("mix", ["no-infectious", "no-susceptible", "carrier"])
def test_c_walk_on_degenerate_populations(small_graph, mix):
    disease = DISEASES["carrier" if mix == "carrier" else "influenza"]
    allowed = np.flatnonzero({
        "no-infectious": ~disease.is_infectious,
        "no-susceptible": ~disease.is_susceptible,
        "carrier": (disease.is_infectious & disease.is_susceptible) | disease.is_terminal,
    }[mix])
    health = np.random.default_rng(5).choice(allowed, small_graph.n_persons)
    for owned in (None, np.arange(small_graph.n_locations) % 3 == 1):
        walked, _ = _assert_walks_agree(small_graph, disease, health, owned, None)
        assert bool(walked.size) == (mix == "carrier")


@production_kernels
@pytest.mark.parametrize("bad", ["negative", "past-the-end"])
@pytest.mark.parametrize("walk", ["c", "numpy"])
def test_visit_rows_out_of_range_raise(small_graph, kernel, bad, walk):
    """A row list used to be the form, and a ``-3`` wrapped to a row near
    the end of the table; rows handed where a mask goes now raise one
    ``ValueError`` on every kernel, whichever walk runs."""
    if walk == "c" and not ckernel.available():
        pytest.skip(f"no compiled kernel: {ckernel.build_error()}")
    rows = np.array([-3, 0, 5]) if bad == "negative" else np.array([0, 5, small_graph.n_visits])
    disease = DISEASES["influenza"]
    health = np.full(small_graph.n_persons, disease.index["infectious_symptomatic"])
    with pytest.MonkeyPatch.context() as mp, pytest.raises(ValueError, match="bool mask"):
        mp.setattr(ckernel, "available", lambda: walk == "c")
        production.compute_infections(
            small_graph, health, disease, TransmissionModel(4e-3), 3, RngFactory(11),
            removed=rows, kernel=kernel,
        )


@pytest.mark.parametrize("bad", ["short", "long", "not-bool"])
@pytest.mark.parametrize("mask", ["owned", "removed"])
def test_masks_that_do_not_fit_the_graph_raise(small_graph, mask, bad):
    """The walks read ``owned[location]`` and ``removed[row]``: a mask an
    entry short or long, or not bool, is a ``ValueError`` before either
    walk reads it — the C walk where the library loads, the numpy walk
    always (the only one under ``REPRO_NO_CKERNEL=1``), and the phase."""
    n = small_graph.n_locations if mask == "owned" else small_graph.n_visits
    value = {"short": np.zeros(n - 1, dtype=bool), "long": np.ones(n + 1, dtype=bool),
             "not-bool": np.ones(n, dtype=np.uint8)}[bad]
    disease = DISEASES["influenza"]
    health = np.full(small_graph.n_persons, disease.index["infectious_symptomatic"])
    walks = [production._numpy_walk]
    if ckernel.available():
        walks.append(ckernel.block_walk)
    for walk in walks:
        with pytest.raises(ValueError, match=f"{mask} must be a bool mask of {n} entries"):
            walk(small_graph, health, disease, **{mask: value})
    with pytest.raises(ValueError, match=f"{mask} must be a bool mask"):
        production.compute_infections(
            small_graph, health, disease, TransmissionModel(4e-3), 3, RngFactory(11),
            collect_stats=True, **{mask: value},
        )


@needs_ckernel
@pytest.mark.parametrize("state", [-1, 99])
@pytest.mark.parametrize("dtype", ["int32", "int64"])  # initial_health's, and widened
def test_health_state_out_of_range_raises_in_both_c_loops(tiny_graph, dtype, state):
    disease = DISEASES["influenza"]
    S, I = disease.index["susceptible"], disease.index["infectious_symptomatic"]
    health = np.where(np.arange(tiny_graph.n_persons) % 4, S, I).astype(dtype)
    rows, bptr, _ = ckernel.block_walk(tiny_graph, health, disease)
    health[tiny_graph.visit_person[rows[0]]] = state
    haz = np.zeros(len(disease.states) ** 2)
    for masks in ((None, None), (np.ones(tiny_graph.n_locations, dtype=bool),
                                 np.zeros(tiny_graph.n_visits, dtype=bool))):
        with pytest.raises(ValueError, match="health_state out of range"):
            ckernel.block_walk(tiny_graph, health, disease, *masks)
    with pytest.raises(ValueError, match="health_state out of range"):
        ckernel.accumulate_exposures(rows, bptr, tiny_graph, health, disease, haz)
    with pytest.raises(ValueError, match="rows / bptr out of range"):
        ckernel.accumulate_exposures(rows, bptr[:-1], tiny_graph, health, disease, haz)


@needs_ckernel
def test_each_c_loop_names_its_own_scratch_when_out_of_memory(tiny_graph, monkeypatch):
    """A failed allocation (the walk's 4, the accumulation's -4) is a
    ``MemoryError`` naming the loop whose scratch it was."""
    disease = DISEASES["influenza"]
    health = np.full(tiny_graph.n_persons, disease.index["infectious_symptomatic"])
    rows, bptr, _ = ckernel.block_walk(tiny_graph, health, disease)
    haz = np.zeros(len(disease.states) ** 2)
    monkeypatch.setattr(ckernel, "_lib", types.SimpleNamespace(
        repro_block_walk=lambda *args: 4, repro_accumulate_exposures=lambda *args: -4))
    with pytest.raises(MemoryError, match="^block walk scratch$"):
        ckernel.block_walk(tiny_graph, health, disease)
    with pytest.raises(MemoryError, match="^exposure accumulation scratch$"):
        ckernel.accumulate_exposures(rows, bptr, tiny_graph, health, disease, haz)


# ----------------------------------------------------------------------
# the index
# ----------------------------------------------------------------------
@contextlib.contextmanager
def _numpy_index():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ckernel, "available", lambda: False)
        yield


#: the C counting sort (where the library builds), then the numpy
#: packed-key sort with the library hidden
INDEX_PATHS = (contextlib.nullcontext, _numpy_index)


def _unindexed(graph, **columns):
    """The same graph as a new object with no cached index."""
    return dataclasses.replace(graph, **columns, **dict.fromkeys(graph._INDEX_FIELDS))


ID_COLUMNS = ("visit_person", "visit_location", "visit_subloc")


def _retyped(graph, dtypes, directory=None):
    """``graph`` with each id column in its drawn width, in RAM or, with
    a ``directory``, memmapped from a file there; no cached index."""
    columns = {}
    for name, dtype in zip(ID_COLUMNS, dtypes):
        col = getattr(graph, name).astype(dtype)
        if directory is not None and col.size:  # numpy cannot map an empty file
            mapped = np.memmap(f"{directory}/{name}.npy", dtype=dtype, mode="w+", shape=col.shape)
            mapped[:] = col
            col = mapped
        columns[name] = col
    return _unindexed(graph, **columns)


def _assert_index_is_the_stable_argsort(graph):
    """Both paths' ``block_visit_index()`` against ``np.argsort(block,
    kind="stable")``, and the ``person_visit_slices()`` the same pass
    built against a ``bincount`` of ``visit_person``."""
    n_blocks = int(graph.location_n_sublocs.sum())
    expected_off = np.cumsum(graph.location_n_sublocs) - graph.location_n_sublocs
    block = expected_off[graph.visit_location] + graph.visit_subloc
    person_counts = np.bincount(graph.visit_person, minlength=graph.n_persons)
    for path in INDEX_PATHS:
        fresh = _unindexed(graph)
        with path():
            order, ptr, sub_off = fresh.block_visit_index()
            person_ptr = fresh._person_ptr  # built by the same pass, not on demand
        assert sub_off.tolist() == expected_off.tolist()
        assert order.dtype == ptr.dtype == sub_off.dtype == np.int64
        assert sorted(order.tolist()) == list(range(graph.n_visits))  # a permutation
        assert ptr.size == n_blocks + 1 and ptr[0] == 0 and ptr[-1] == graph.n_visits
        assert (np.diff(ptr) >= 0).all()
        assert np.array_equal(np.diff(ptr), np.bincount(block, minlength=n_blocks))
        assert np.array_equal(block[order], np.sort(block))  # grouped by block ...
        same_block = block[order][1:] == block[order][:-1]
        assert (np.diff(order)[same_block] > 0).all()  # ... ascending row inside each
        assert np.array_equal(order, np.argsort(block, kind="stable"))
        assert fresh.block_visit_index()[0] is order  # built once
        assert fresh.person_visit_slices() is person_ptr and person_ptr.dtype == np.int64
        assert np.array_equal(person_ptr, np.concatenate([[0], np.cumsum(person_counts)]))


@given(phases(), st.lists(st.sampled_from([np.int32, np.int64]), min_size=3, max_size=3),
       st.booleans())
@settings(max_examples=100, deadline=None)
def test_index_properties(phase, dtypes, memmap):
    """Any mix of int32 / int64 id columns, in RAM or memmapped."""
    with tempfile.TemporaryDirectory() as directory:
        _assert_index_is_the_stable_argsort(_retyped(phase[0], dtypes, directory if memmap else None))


def test_index_on_generated_populations(tiny_graph, small_graph, wy_graph):
    for graph in (tiny_graph, small_graph, wy_graph):
        _assert_index_is_the_stable_argsort(graph)


def test_index_on_a_memmap_population(tmp_path):
    """Streamed columns on disk: the C loop reads int64 ``visit_location``
    / ``visit_person`` and int32 ``visit_subloc`` where they lie and
    allocates only what it returns (the block index and the person
    index); an int64 copy of ``visit_subloc`` gives the same index."""
    graph = generate_population_streamed(
        PopulationConfig(n_persons=1000), 3, backing="memmap", block_persons=64, dir=tmp_path,
    )
    assert isinstance(graph.visit_location, np.memmap) and graph.visit_subloc.dtype == np.int32
    if ckernel.available():
        n_blocks = int(graph.location_n_sublocs.sum())
        sub_bounds = np.concatenate([[0], np.cumsum(graph.location_n_sublocs, dtype=np.int64)])
        ckernel.block_index(graph, sub_bounds)  # warm: first-call ctypes set-up allocates too
        tracemalloc.start()
        ckernel.block_index(graph, sub_bounds)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        returned = 8 * (graph.n_visits + n_blocks + 1 + graph.n_persons + 1)
        assert returned <= peak < returned + 4 * graph.n_visits  # less than a copy of either column
    _assert_index_is_the_stable_argsort(graph)
    wide = _unindexed(graph, visit_subloc=graph.visit_subloc.astype(np.int64))
    _assert_index_is_the_stable_argsort(wide)
    assert np.array_equal(wide.block_visit_index()[0], _unindexed(graph).block_visit_index()[0])


@pytest.mark.parametrize(
    "n_locations, rooms",
    [(1, 1), (1, 7), (40_000, 2), (70_000, 1), (2, 40_000)],
    ids=["one-block", "one-location", "80000-blocks", "70000-blocks", "wide-locations"],
)
def test_index_block_counts(n_locations, rooms):
    """Past 65,536 blocks (the most a 16-bit key holds), on a single
    block, and on two locations of 40,000 rooms; mostly singleton
    blocks in the wide cases."""
    rng = np.random.default_rng(n_locations + rooms)
    n_persons = 3000
    person = np.sort(rng.integers(0, n_persons, 12_000))
    start = rng.integers(0, 1200, person.size)
    by_person_start = np.lexsort((start, person))
    location = rng.integers(0, n_locations, person.size)
    visits = zip(
        person[by_person_start], location, rng.integers(0, rooms, person.size),
        start[by_person_start], start[by_person_start] + 30,
    )
    graph = _graph(list(visits), np.full(n_locations, rooms), n_persons)
    _assert_index_is_the_stable_argsort(graph)
    # and the walk over it, on a population where blocks are mostly singletons
    disease = DISEASES["influenza"]
    health = rng.choice(
        [disease.index["susceptible"], disease.index["infectious_symptomatic"]],
        n_persons, p=[0.9, 0.1],
    )
    _assert_same_candidates(graph, disease, health, None, None)
    _assert_same_candidates(graph, disease, health, np.arange(n_locations) % 2 == 0, None)


def _empty_graph():
    return PersonLocationGraph(
        name="empty", n_persons=0, n_locations=0,
        **{f"visit_{c}": np.empty(0, dtype=np.int64)
           for c in ("person", "location", "subloc", "start", "end")},
        location_n_sublocs=np.empty(0, dtype=np.int64),
        location_type=np.empty(0, dtype=np.int64),
        person_age=np.empty(0, dtype=np.int64), person_home=np.empty(0, dtype=np.int64),
    )


def test_empty_graph_has_an_empty_index():
    graph = _empty_graph()
    _assert_index_is_the_stable_argsort(graph)  # both paths
    order, ptr, sub_off = graph.block_visit_index()
    assert order.size == 0 and ptr.tolist() == [0] and sub_off.size == 0


@pytest.mark.parametrize("memmap", [False, True], ids=["ram", "memmap"])
@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@pytest.mark.parametrize("visits", [[], [(1, 2, 1, 60, 90)]], ids=["empty", "one-visit"])
def test_index_on_the_smallest_graphs(visits, dtype, memmap, tmp_path):
    graph = _graph(visits, [1, 1, 3], 3) if visits else _empty_graph()
    _assert_index_is_the_stable_argsort(_retyped(graph, [dtype] * 3, tmp_path if memmap else None))


#: (location, subloc) planted at one row of a valid three-location
#: graph with [2, 3, 2] rooms, the column the error must name
CORRUPT = {
    "negative-location": (-1, 0, "visit_location"),  # wrapped to the last location
    "room-past-its-location": (0, 2, "visit_subloc"),  # the next location's first block
    "room-past-the-last-location": (2, 2, "visit_subloc"),  # one block past the end
    "room-that-int32-wraps": (1, 2**32, "visit_subloc"),  # room 0 after a narrowing cast
}


@pytest.mark.parametrize("case", list(CORRUPT))
def test_out_of_range_ids_raise_and_leave_the_graph_alone(case):
    location, subloc, column = CORRUPT[case]
    graph = _graph([(p, p % 3, 0, 60 * p, 60 * p + 30) for p in range(6)], [2, 3, 2], 6)
    graph.visit_location[4], graph.visit_subloc[4] = location, subloc
    before = graph.content_hash()
    messages = set()
    for path in INDEX_PATHS:
        with path(), pytest.raises(ValueError, match=column) as raised:
            graph.block_visit_index()
        messages.add(str(raised.value))
        assert graph._block_index is None and graph.content_hash() == before
    assert messages == {f"{column} out of range"}  # one error, whichever path ran


# ----------------------------------------------------------------------
# a corrupt person column, caught by the pass that builds both indexes
# ----------------------------------------------------------------------
#: {row: visit_person} planted in a valid six-person graph (row p is
#: person p), the message: a person out of range anywhere wins
CORRUPT_PERSON = {
    "descending": ({4: 2}, "visit_person is not sorted"),  # row 4 below row 3's person 3
    "negative": ({0: -1}, "visit_person out of range"),
    "past-the-end": ({5: 6}, "visit_person out of range"),
    "int32-wraps": ({5: 2**32 + 5}, "visit_person out of range"),  # person 5 after narrowing
    "descending-then-past-the-end": ({2: 0, 5: 6}, "visit_person out of range"),
}


@pytest.mark.parametrize("case", list(CORRUPT_PERSON))
@pytest.mark.parametrize("first", ["block_visit_index", "person_visit_slices"])
def test_corrupt_visit_person_raises_on_both_paths(case, first):
    """``person_visit_slices()`` used to ``bincount`` whatever lay in the
    column: an unsorted one gave every person wrong rows, silently.  Now
    either index's first use checks it, on the C path and the numpy one."""
    planted, message = CORRUPT_PERSON[case]
    graph = _graph([(p, p % 3, 0, 60 * p, 60 * p + 30) for p in range(6)], [2, 3, 2], 6)
    for row, person in planted.items():
        graph.visit_person[row] = person
    before = graph.content_hash()
    for path in INDEX_PATHS:
        with path(), pytest.raises(ValueError, match=f"^{message}$"):
            getattr(graph, first)()
        assert graph._block_index is None and graph._person_ptr is None
        assert graph.content_hash() == before


# ----------------------------------------------------------------------
# run level: the epidemic, the simulated runtime's virtual time, smp
# ----------------------------------------------------------------------
def _spec(kernel, **runtime):
    return RunSpec(
        population=PopulationSpec(kind="generated", n_persons=2000, seed=20140519),
        n_days=3, seed=5, initial_infections=40, transmissibility=2.5e-5,
        runtime=RuntimeSpec(kernel=kernel, **runtime),
    )


def _use_linear(monkeypatch, kernel):
    """Swap the oracle on ``kernel`` in at the one place any backend
    reaches ``compute_infections`` through (forked smp workers inherit
    it)."""
    monkeypatch.setattr(
        day_steps, "compute_infections",
        exposure_reference.pinned(exposure_reference.compute_infections_linear, kernel),
    )


@kernels
def test_sequential_run_record_is_unchanged(kernel, monkeypatch):
    spec = _spec(production_kernel(kernel))
    production_record = execute(spec).record()
    _use_linear(monkeypatch, kernel)
    assert execute(spec).record() == production_record
    assert sum(production_record["new_infections"]) > 40  # it did transmit


@kernels
def test_charm_run_virtual_time_is_unchanged(kernel, monkeypatch):
    """splitLoc'd graph, 4 PEs, one walk per LocationManager chare:
    ``events`` / ``interactions`` feed the load model, so equal virtual
    time pins them through a whole run."""
    spec = _spec(production_kernel(kernel), backend="charm", workers=4)
    graph, part = PartitionSpec("gp", k=4, split=True).build(spec.population.build())

    def run():
        out = ParallelEpiSimdemics.from_spec(spec, graph=graph, partition=part).run()
        return out.phase_times, out.total_virtual_time, out.runtime_stats, out.result.curve

    got = run()
    _use_linear(monkeypatch, kernel)
    assert run() == got
    assert len(got[0]) == 3


@pytest.mark.parametrize(
    "kernel",
    ["flat", pytest.param("compiled", marks=pytest.mark.skipif(
        not ckernel.available(), reason=f"no compiled kernel: {ckernel.build_error()}"))],
)
def test_smp_day_results_are_unchanged(kernel, monkeypatch):
    spec = _spec(kernel, backend="smp", workers=2)
    graph = spec.population.build()
    got = SmpSimulator.from_spec(spec, graph=graph).run().result.days
    assert graph._block_index is not None  # built in the driver, before the fork
    _use_linear(monkeypatch, kernel)
    assert SmpSimulator.from_spec(spec, graph=graph).run().result.days == got
    assert sum(d.new_infections for d in got) > 40


@pytest.mark.parametrize("config", ["influenza", "closure"] + registry.names())
def test_visits_made_through_the_none_seam(small_graph, config, monkeypatch):
    """The sequential day hands on ``removed=None`` for "no visit
    removed" and counts ``graph.n_visits``; the loop it replaced listed
    the rows."""
    handed = []
    real = day_steps.compute_infections

    def spy(*args, **kwargs):
        handed.append(kwargs["removed"])
        return real(*args, **kwargs)

    def scenario():
        if config in registry.names():
            return registry.build_scenario(
                config, small_graph, n_days=6, seed=7, initial_infections=12,
                transmissibility=3e-4,
            )
        closure = [SchoolClosure(day=2, duration=2)] if config == "closure" else []
        return Scenario(
            graph=small_graph, n_days=6, seed=7, initial_infections=12,
            transmission=TransmissionModel(3e-4),
            interventions=InterventionSchedule(closure),
        )

    ref = ReferenceDayLoop(scenario())
    expected = [ref._step_day()[0] for _ in range(6)]
    monkeypatch.setattr(day_steps, "compute_infections", spy)
    got = SequentialSimulator(scenario()).run().days
    assert got == expected
    for day, removed in zip(got, handed):
        if removed is None:
            assert day.visits_made == small_graph.n_visits
        else:
            assert day.visits_made == small_graph.n_visits - removed.sum() < small_graph.n_visits
    if config == "influenza":
        assert all(removed is None for removed in handed)
    if config == "closure":
        assert [removed is None for removed in handed] == [True, True, False, False, True, True]
