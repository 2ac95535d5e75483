"""Population synthesis without sorts or binary searches, bit-exact.

Both generators place every visit at its row of the ``(person, start)``
order by construction (``generator._person_major`` / ``_place``) and
answer weighted draws through a guide table
(``repro.synthpop.guide.GuideTable``).  Three layers hold them to what
they replaced:

* **pins** — ``content_hash()`` of ``generated`` and ``streamed``
  populations as the ``lexsort`` + ``searchsorted`` generators built
  them: two seeds, ``n_regions`` 1 and 4, ``block_persons`` 128 and 8192;
  and of streamed populations as the generator that drew each block's
  skeleton twice and buffered its visits built them: the memmap backing,
  a partial last block, ``n_persons < block_persons``;
* **references** — the verbatim assembly and pool in
  ``synth_reference.py``, over drawn degree vectors and weights;
* **the dense draw** — ``generator._choice`` against
  ``Generator.choice(p=...)`` for the same seed, state included.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.synthpop import PopulationConfig, generate_population, generate_population_streamed
from repro.synthpop import generator, stream
from repro.synthpop.guide import MAX_STEPS, GuideTable

from . import synth_reference as ref

# ----------------------------------------------------------------------
# pins: the populations the sorting generators built
# ----------------------------------------------------------------------
PINNED = {
    ("generated", 3, 1, None): "70cf69a0e07a8808f70baf2625766904",
    ("generated", 3, 4, None): "891ad88088e4e3e513bafd9e3e80814b",
    ("generated", 20140519, 1, None): "b88c13f77f7a138f0aa6a7d74af4eb40",
    ("generated", 20140519, 4, None): "095a6caa6bb5121b1da1d490293fe312",
    ("streamed", 3, 1, 128): "b3fd4c9751a7fe20a6e5eedd60e0934a",
    ("streamed", 3, 1, 8192): "54c0b9f5cae5ab428e321f1ab301f811",
    ("streamed", 3, 4, 128): "0492f2ae2e601715c4f0c7b80c9863f8",
    ("streamed", 3, 4, 8192): "25e99e5e55261d75807b9639013a8d33",
    ("streamed", 20140519, 1, 128): "c3670372e04f47ec0e1b3e845d95f6ce",
    ("streamed", 20140519, 1, 8192): "26c39c656a9fac714f90b1e5cb3c3753",
    ("streamed", 20140519, 4, 128): "b9a12ee0cb84243f7312e4631e399e06",
    ("streamed", 20140519, 4, 8192): "75c033aedc3abb7b38caa4642c5143a3",
}


@pytest.mark.parametrize("kind, seed, regions, block", sorted(PINNED, key=str))
def test_population_hash_is_pinned(kind, seed, regions, block):
    cfg = PopulationConfig(n_persons=20_000, n_regions=regions)
    if kind == "generated":
        graph = generate_population(cfg, seed)
    else:
        graph = generate_population_streamed(cfg, seed, block_persons=block, backing="ram")
    assert graph.content_hash() == PINNED[kind, seed, regions, block]


#: (seed, n_persons, n_regions, block_persons, backing) -> content hash.
PINNED_LAYOUTS = {
    (3, 20_000, 1, 8192, "memmap"): "54c0b9f5cae5ab428e321f1ab301f811",
    (20140519, 20_000, 4, 128, "memmap"): "b9a12ee0cb84243f7312e4631e399e06",
    (3, 1000, 1, 384, "ram"): "9e8ae6a95936c0f23215050071275a12",
    (20140519, 1000, 4, 384, "memmap"): "7550f4acc6baf2d1ab7fa88de35162ef",
    (3, 300, 1, 8192, "ram"): "3d0f62d079c7b589aeeb6e9d6c4ecd06",
    (20140519, 300, 4, 8192, "memmap"): "3dd788b59d86c3b703566fad8350e350",
    (3, 1, 1, 8192, "ram"): "61a38bf37766ac78bd40f966aada5748",
}


@pytest.mark.parametrize("seed, n, regions, block, backing", sorted(PINNED_LAYOUTS, key=str))
def test_streamed_layout_hash_is_pinned(seed, n, regions, block, backing):
    cfg = PopulationConfig(n_persons=n, n_regions=regions)
    graph = generate_population_streamed(cfg, seed, block_persons=block, backing=backing)
    assert graph.backing.kind == backing
    assert graph.content_hash() == PINNED_LAYOUTS[seed, n, regions, block, backing]


# ----------------------------------------------------------------------
# placement == the stable lexsort
# ----------------------------------------------------------------------
@st.composite
def visit_pieces(draw):
    """A block's visit pieces as the generators draw them: degrees >= 2
    (2 = no activity visit), morning starts 0, activity starts in
    [480, 1080) — in ordinal order, with ties, or in any order — and
    evening starts in [1080, 1380]."""
    degrees = np.array(
        draw(st.lists(st.one_of(st.just(2), st.integers(2, 9)), min_size=1, max_size=40)),
        dtype=np.int64,
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, k = degrees.size, degrees - 2
    act_person = np.repeat(np.arange(n, dtype=np.int64), k)
    starts = draw(st.sampled_from(["ordinal", "ties", "any"]))
    start_act = rng.integers(480, 484 if starts == "ties" else 1080, size=act_person.size, dtype=np.int32)
    if starts != "any":
        start_act = start_act[np.lexsort((start_act, act_person))]
    return dict(
        degrees=degrees,
        act_person=act_person,
        building=rng.integers(0, 50, size=n),
        location_act=rng.integers(50, 90, size=act_person.size),
        slot=rng.integers(0, 3, size=n),
        subloc_act=rng.integers(0, 4, size=act_person.size, dtype=np.int32),
        morning_start=np.zeros(n, dtype=np.int32),
        evening_start=rng.integers(1080, 1381, size=n, dtype=np.int32),
        start_act=start_act,
        morning_end=rng.integers(60, 481, size=n, dtype=np.int32),
        evening_end=np.full(n, 1440, dtype=np.int32),
        end_act=(start_act + rng.integers(1, 30, size=act_person.size)).astype(np.int32),
        lo=draw(st.integers(0, 10**6)),
    )


def _placed(p, slot):
    rows = generator._person_major(p["degrees"], p["act_person"], p["start_act"])
    lo = p["lo"]
    return {
        "person": np.repeat(np.arange(lo, lo + p["degrees"].size, dtype=np.int64), p["degrees"]),
        "location": generator._place(rows, p["building"], p["location_act"], p["building"], np.int64),
        "subloc": generator._place(rows, slot, p["subloc_act"], slot, np.int32),
        "start": generator._place(rows, p["morning_start"], p["start_act"], p["evening_start"], np.int32),
        "end": generator._place(rows, p["morning_end"], p["end_act"], p["evening_end"], np.int32),
    }


def _assert_same_columns(got: dict, expected: dict):
    assert list(got) == list(expected)
    for (name, a), b in zip(got.items(), expected.values()):
        assert a.dtype == b.dtype and a.tolist() == b.tolist(), name


@given(visit_pieces())
@settings(max_examples=300, deadline=None)
def test_placement_equals_the_stream_lexsort(p):
    slot = p["slot"].astype(np.int32)  # the streamed skeleton's dtype
    expected = ref.stream_block_assembly(
        p["lo"], np.arange(p["degrees"].size, dtype=np.int64), p["act_person"],
        p["building"], p["location_act"], slot, p["subloc_act"],
        p["morning_start"], p["evening_start"], p["start_act"],
        p["morning_end"], p["evening_end"], p["end_act"],
    )
    _assert_same_columns(_placed(p, slot), expected)


@given(visit_pieces())
@settings(max_examples=300, deadline=None)
def test_placement_equals_the_dense_lexsort(p):
    p["lo"] = 0
    expected = ref.dense_assembly(
        p["degrees"].size, p["act_person"], p["building"], p["location_act"],
        p["slot"], p["subloc_act"], p["morning_start"], p["evening_start"],
        p["start_act"], p["morning_end"], p["evening_end"], p["end_act"],
    )
    got = _placed(p, p["slot"])  # the dense skeleton's slots are int64
    _assert_same_columns(dict(zip(expected, got.values())), expected)


def test_descending_starts_take_the_stable_sort_rows():
    """Person 1's activity starts descend, with a tie: rows follow the
    stable sort, not the ordinal; persons 0 and 3 keep theirs."""
    degrees = np.array([3, 5, 2, 3])
    act_person = np.array([0, 1, 1, 1, 3])
    start_act = np.array([500, 900, 600, 600, 700], dtype=np.int32)
    first, act_rows, last = generator._person_major(degrees, act_person, start_act)
    assert first.tolist() == [0, 3, 8, 10] and last.tolist() == [2, 7, 9, 12]
    assert act_rows.tolist() == [1, 6, 4, 5, 11]


# ----------------------------------------------------------------------
# guided search == np.searchsorted(cdf, u, "right")
# ----------------------------------------------------------------------
@st.composite
def weights(draw):
    """Pools of 1 and 2, one dominant weight, buckets spanning many
    entries (past MAX_STEPS too), zeros, and free-form lists."""
    shape = draw(st.sampled_from(["one", "two", "dominant", "wide", "free"]))
    positive = st.floats(1e-3, 1e3)
    if shape == "one":
        w = [draw(positive)]
    elif shape == "two":
        w = draw(st.permutations([draw(positive), draw(st.one_of(st.just(0.0), positive))]))
    elif shape == "dominant":
        m = draw(st.integers(1, 400))
        w = [1.0] * m
        w.insert(draw(st.integers(0, m)), draw(st.floats(1e3, 1e12)))
    elif shape == "wide":
        tiny = draw(st.integers(2, 4 * MAX_STEPS))
        w = [1e-9] * tiny + draw(st.lists(positive, min_size=1, max_size=20))
        w = draw(st.permutations(w))
    else:
        w = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 100.0)), min_size=1, max_size=300))
        if not sum(w) > 0:
            w[-1] = 1.0
    return np.array(w, dtype=np.float64)


def _stream_cdf(w):
    cdf = np.cumsum(w)
    cdf /= cdf[-1]
    cdf[-1] = 1.0
    return cdf


def _dense_cdf(w):
    cdf = (w / w.sum()).cumsum()
    cdf /= cdf[-1]
    return cdf


def _probes(cdf, seed):
    """u = 0, every cdf[i], its neighbours either side, random uniforms."""
    u = np.concatenate([
        [0.0], cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 1.0),
        np.random.default_rng(seed).random(64),
    ])
    return u[(u >= 0.0) & (u <= 1.0)]


@given(weights(), st.integers(0, 2**32 - 1))
@settings(max_examples=400, deadline=None)
def test_guided_search_equals_searchsorted(w, seed):
    for cdf in (_stream_cdf(w), _dense_cdf(w)):
        u = _probes(cdf, seed)
        got = GuideTable(cdf).search(u)
        assert got.dtype == np.intp
        assert got.tolist() == np.searchsorted(cdf, u, side="right").tolist()


@given(weights(), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_pool_draw_equals_the_reference_pool(w, seed):
    attract = np.concatenate([w, [5.0, 7.0]])  # a pool is a subset of the locations
    ids = np.arange(w.size, dtype=np.int64)
    u = _probes(_stream_cdf(w), seed)
    u = u[u < 1.0]  # uniforms
    got = stream._WeightedPool(ids, attract).draw(u)
    assert got.tolist() == ref.WeightedPool(ids, attract).draw(u).tolist()


def _steps_needed(table, u):
    """Forward steps from each row's bucket start to its answer."""
    start = table.guide[(u * table.scale).astype(np.intp)]
    return np.searchsorted(table.cdf[:-1], u, side="right") - start


@pytest.mark.parametrize("w, fewest, most", [
    (np.ones(8), 0, 1),  # done at the bucket start or one step on
    (np.array([1.0] * 40 + [400.0]), 3, 2 + MAX_STEPS),  # open rows, compacted
    (np.array([1e6] + [1.0] * 1000), 2 + MAX_STEPS + 1, 1000),  # past MAX_STEPS
])
def test_every_search_regime_is_exact(w, fewest, most):
    """Rows done within the two steps over every row, rows finished by
    the steps over the open rows, and rows left to np.searchsorted."""
    table = GuideTable(_stream_cdf(w))
    u = np.linspace(0.0, 1.0, 10_001)
    needed = _steps_needed(table, u)
    assert needed.max() >= fewest and needed.max() <= most
    assert table.search(u).tolist() == np.searchsorted(table.cdf[:-1], u, side="right").tolist()


def test_guide_is_int32_and_about_half_the_cdf():
    table = GuideTable(_stream_cdf(np.arange(1.0, 1001.0)))
    assert table.guide.dtype == np.int32 and table.guide.size == 512 + 1
    assert table.guide.nbytes <= (table.cdf.size - 1) * 8 // 2


# ----------------------------------------------------------------------
# the dense generator's draws == Generator.choice
# ----------------------------------------------------------------------
@given(weights(), st.integers(0, 3000), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_dense_draw_equals_generator_choice(w, size, seed):
    attract = np.concatenate([[3.0], w])
    ids = np.arange(1, attract.size, dtype=np.int64)
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    got = generator._choice(a, ids, attract, size)
    expected = b.choice(ids, size=size, p=attract[ids] / attract[ids].sum())
    assert got.dtype == expected.dtype and got.tolist() == expected.tolist()
    assert a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize(
    "w", [[], [1.0, -0.5], [1.0, np.nan], [np.inf, 1.0]], ids=["empty", "negative", "nan", "inf"]
)
def test_bad_pools_raise_like_choice(w):
    attract = np.array(w + [1.0], dtype=np.float64)
    ids = np.arange(len(w), dtype=np.int64)
    with pytest.raises(ValueError), np.errstate(invalid="ignore"):
        np.random.default_rng(0).choice(ids, size=3, p=attract[ids] / attract[ids].sum())
    with pytest.raises(ValueError):
        generator._choice(np.random.default_rng(0), ids, attract, 3)
    with pytest.raises(ValueError):
        stream._WeightedPool(ids, attract)
