"""The flat pair enumerator's order contract, against the one it replaced.

``repro.core.des.blocked_pairwise_exposures`` hands its pairs on by
ascending susceptible index, each susceptible's infectious partners in
``order`` — the order the flat kernel adds a person's hazards in, so
neither the kernel nor the contact projection sorts them.
``exposure_reference.blocked_pairwise_exposures`` is the block-major
enumerator before that, verbatim; a stable argsort of its output by
susceptible index is the order its callers restored, and must be the
production output byte for byte, dtypes included.

Then whole runs: every ``_draw_and_emit`` call of the production flat
kernel (the per-slot keys, hazard-sum bytes, first minutes and pair
counts) equals the reference flat kernel's — the one with the pair sort
and a ``TransmissionModel.hazard`` call per pair — on influenza and on
every registered scenario; and the contact projection keeps its bytes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import projection
from repro.core import Scenario, SequentialSimulator, TransmissionModel
from repro.core import exposure as production
from repro.core.des import blocked_pairwise_exposures
from repro.scenarios import registry
from repro.spec import PopulationSpec

from . import exposure_reference
from .exposure_reference import blocked_pairwise_exposures as reference_pairs


def _summation_order(pairs):
    """The reference's pairs the way its callers sorted them."""
    by_sus = np.argsort(pairs[0], kind="stable")
    return tuple(a[by_sus] for a in pairs)


def _assert_same_pairs(order, block_id, start, end, sus, inf):
    got = blocked_pairwise_exposures(order, block_id, start, end, sus, inf)
    expected = _summation_order(reference_pairs(order, block_id, start, end, sus, inf))
    for name, a, b in zip(("sus_idx", "inf_idx", "overlap_start", "overlap_end"), got, expected):
        assert a.dtype == b.dtype == np.int64, name
        assert a.tobytes() == b.tobytes(), name
    return got


def _segment(block, rows, tiebreak):
    """``(order, block_id)``: ``rows`` grouped by ascending block,
    ``tiebreak`` ordering the rows inside a block."""
    order = rows[np.lexsort((tiebreak, block[rows]))]
    return order, block[order]


@st.composite
def segmented_visits(draw):
    """Per-visit columns and a block segmentation of some of the
    visits: S, I, both or neither; zero-length visits and touching
    intervals; rows inside a block ascending or shuffled."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(0, 80))
    block = rng.integers(0, draw(st.integers(1, 12)), n)
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    start = rng.integers(0, 30, n).astype(dtype)
    end = (start + rng.integers(0, 8, n)).astype(dtype)
    sus = rng.random(n) < draw(st.floats(0, 1))
    inf = rng.random(n) < draw(st.floats(0, 1))
    rows = np.flatnonzero(rng.random(n) < draw(st.floats(0.3, 1)))
    ascending = draw(st.booleans())
    tiebreak = rows if ascending else rng.permutation(rows.size)
    return (*_segment(block, rows, tiebreak), start, end, sus, inf)


class TestEnumeratorOrder:
    @given(segmented_visits())
    @settings(max_examples=300, deadline=None)
    def test_equals_the_sorted_reference(self, visits):
        _assert_same_pairs(*visits)

    def test_a_visit_that_is_s_and_i_does_not_pair_with_itself(self):
        rows = np.arange(3)
        both = np.array([True, True, False])
        s_idx, i_idx, _, _ = _assert_same_pairs(
            rows, np.zeros(3, dtype=np.int64), np.array([0, 5, 10]), np.array([60, 50, 40]),
            both | np.array([False, False, True]), both,
        )
        assert list(zip(s_idx.tolist(), i_idx.tolist())) == [(0, 1), (1, 0), (2, 0), (2, 1)]

    def test_zero_overlap_and_zero_length_visits(self):
        # 0 and 1 touch at minute 10; 2 is zero-length inside 3; 3 and 4 overlap
        start, end = np.array([0, 10, 20, 15, 25]), np.array([10, 30, 20, 40, 26])
        sus = np.array([True, False, True, True, False])
        s_idx, i_idx, o_start, o_end = _assert_same_pairs(
            np.arange(5), np.zeros(5, dtype=np.int64), start, end, sus, ~sus
        )
        assert s_idx.tolist() == [3, 3] and i_idx.tolist() == [1, 4]
        assert o_start.tolist() == [15, 25] and o_end.tolist() == [30, 26]

    @pytest.mark.parametrize("side", ["sus", "inf"])
    def test_empty_side(self, side):
        n = 6
        masks = {"sus": np.ones(n, dtype=bool), "inf": np.ones(n, dtype=bool)}
        masks[side][:] = False
        out = _assert_same_pairs(
            np.arange(n), np.arange(n) // 2, np.zeros(n), np.full(n, 9), masks["sus"], masks["inf"]
        )
        assert all(a.size == 0 for a in out)

    def test_one_block(self):
        rng = np.random.default_rng(3)
        start = rng.integers(0, 100, 400)
        out = _assert_same_pairs(
            np.arange(400), np.zeros(400, dtype=np.int64), start, start + rng.integers(1, 50, 400),
            rng.random(400) < 0.6, rng.random(400) < 0.3,
        )
        assert out[0].size > 1000

    def test_more_than_65536_blocks(self):
        rng = np.random.default_rng(4)
        n = 300_000
        block = np.sort(rng.integers(0, 70_000, n))
        assert np.unique(block).size > 65_536
        start = rng.integers(0, 1000, n)
        out = _assert_same_pairs(
            np.arange(n), block, start, start + rng.integers(0, 400, n),
            rng.random(n) < 0.5, rng.random(n) < 0.4,
        )
        assert out[0].size > 50_000


def _slot_sums(monkeypatch, scenario, flat_kernel):
    """Every ``_draw_and_emit`` argument set of a flat-kernel run."""
    calls = []
    real = production._draw_and_emit

    def spy(result, keys, total_h, first_minute, pair_count, *rest):
        calls.append(
            (keys.tobytes(), total_h.tobytes(), first_minute.tobytes(), pair_count.tobytes())
        )
        return real(result, keys, total_h, first_minute, pair_count, *rest)

    with monkeypatch.context() as m:
        m.setattr(production, "_draw_and_emit", spy)
        m.setattr(production, "_flat_kernel", flat_kernel)
        days = SequentialSimulator(scenario, kernel="flat").run().days
    return calls, days


@pytest.mark.parametrize("config", ["influenza"] + registry.names())
def test_slot_sums_equal_the_reference_flat_kernel(small_graph, config, monkeypatch):
    def scenario():
        if config in registry.names():
            return registry.build_scenario(
                config, small_graph, n_days=8, seed=11, initial_infections=20,
                transmissibility=4e-4,
            )
        return Scenario(
            graph=small_graph, n_days=8, seed=11, initial_infections=20,
            transmission=TransmissionModel(4e-4),
        )

    got, got_days = _slot_sums(monkeypatch, scenario(), production._flat_kernel)
    expected, expected_days = _slot_sums(monkeypatch, scenario(), exposure_reference.flat_kernel)
    assert got == expected
    assert got_days == expected_days
    assert len(got) >= 4 and sum(len(keys) for keys, *_ in got) > 8 * 40


@pytest.mark.parametrize("preset", ["tiny", "heavy"])
def test_projection_keeps_its_bytes(preset, monkeypatch):
    """``project_contact_graph`` on the external oracle's two presets,
    through the reference enumerator and through production."""
    if preset == "tiny":
        spec = PopulationSpec(n_persons=300, seed=20140519, name="oracle-tiny")
    else:
        spec = PopulationSpec(
            kind="preset", preset="heavy-tailed", n_persons=1500, params={"n_locations": 200}
        )
    graph = spec.build()
    got = projection.project_contact_graph(graph)
    monkeypatch.setattr(projection, "blocked_pairwise_exposures", reference_pairs)
    expected = projection.project_contact_graph(graph)
    assert got.n_edges > 1000
    for name in ("indptr", "indices", "weights"):
        a, b = getattr(got, name), getattr(expected, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
