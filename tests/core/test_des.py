"""Location DES: the event sweep vs the vectorised all-pairs kernel.

Both are test references (``des_reference``): the definition the
production blocked enumerator is held to in ``test_exposure_kernels.py``.

The central property: both implementations produce the *same set* of
susceptible×infectious interactions with the same overlap intervals, on
any input.  The hypothesis test generates random visit patterns.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from .des_reference import LocationDES, pairwise_exposures


def _pairs_from_sweep(interactions):
    return {(i.sus_visit, i.inf_visit, i.overlap_start, i.overlap_end) for i in interactions}


def _pairs_from_vectorised(res):
    s, i, a, b = res
    return set(zip(s.tolist(), i.tolist(), a.tolist(), b.tolist()))


class TestSimpleCases:
    def test_basic_overlap(self):
        subloc = np.array([0, 0])
        start = np.array([100, 150])
        end = np.array([300, 400])
        sus = np.array([True, False])
        inf = np.array([False, True])
        sweep = LocationDES().run(subloc, start, end, sus, inf)
        assert len(sweep) == 1
        assert sweep[0].overlap_start == 150
        assert sweep[0].overlap_end == 300

    def test_different_sublocations_never_interact(self):
        subloc = np.array([0, 1])
        start = np.array([0, 0])
        end = np.array([100, 100])
        sus = np.array([True, False])
        inf = np.array([False, True])
        assert LocationDES().run(subloc, start, end, sus, inf) == []
        assert _pairs_from_vectorised(
            pairwise_exposures(subloc, start, end, sus, inf)
        ) == set()

    def test_touching_intervals_no_overlap(self):
        subloc = np.array([0, 0])
        start = np.array([0, 100])
        end = np.array([100, 200])
        sus = np.array([True, False])
        inf = np.array([False, True])
        assert LocationDES().run(subloc, start, end, sus, inf) == []

    def test_empty_location(self):
        e = np.empty(0, dtype=np.int64)
        b = np.empty(0, dtype=bool)
        assert LocationDES().run(e, e, e, b, b) == []

    def test_event_count_stat(self):
        subloc = np.zeros(3, dtype=np.int64)
        start = np.array([0, 10, 20])
        end = np.array([30, 40, 50])
        flags = np.array([False, False, False])
        des = LocationDES()
        des.run(subloc, start, end, flags, flags)
        assert des.stats.events == 6

    def test_interaction_stats_counted(self):
        subloc = np.zeros(3, dtype=np.int64)
        start = np.array([0, 0, 0])
        end = np.array([100, 100, 100])
        sus = np.array([True, True, False])
        inf = np.array([False, False, True])
        des = LocationDES()
        out = des.run(subloc, start, end, sus, inf)
        assert len(out) == 2
        assert des.stats.interactions == 2
        assert des.stats.recip_interactions > 0


@st.composite
def visit_pattern(draw):
    n = draw(st.integers(1, 18))
    subloc = draw(
        st.lists(st.integers(0, 2), min_size=n, max_size=n)
    )
    starts, ends, sus, inf = [], [], [], []
    for _ in range(n):
        a = draw(st.integers(0, 1430))
        b = draw(st.integers(a + 1, 1440))
        starts.append(a)
        ends.append(b)
        role = draw(st.sampled_from(["sus", "inf", "both", "neither"]))
        sus.append(role in ("sus", "both"))
        inf.append(role in ("inf", "both"))
    return (
        np.array(subloc),
        np.array(starts),
        np.array(ends),
        np.array(sus),
        np.array(inf),
    )


class TestEquivalence:
    @given(visit_pattern())
    @settings(max_examples=200, deadline=None)
    def test_sweep_equals_vectorised(self, pattern):
        subloc, start, end, sus, inf = pattern
        sweep = _pairs_from_sweep(LocationDES().run(subloc, start, end, sus, inf))
        vect = _pairs_from_vectorised(pairwise_exposures(subloc, start, end, sus, inf))
        assert sweep == vect

    @given(visit_pattern())
    @settings(max_examples=100, deadline=None)
    def test_overlaps_positive_and_within_bounds(self, pattern):
        subloc, start, end, sus, inf = pattern
        s, i, a, b = pairwise_exposures(subloc, start, end, sus, inf)
        assert np.all(b > a)
        assert np.all(a >= np.maximum(start[s], start[i]))
        assert np.all(b <= np.minimum(end[s], end[i]))

    @given(visit_pattern())
    @settings(max_examples=100, deadline=None)
    def test_no_self_interaction(self, pattern):
        subloc, start, end, sus, inf = pattern
        s, i, _, _ = pairwise_exposures(subloc, start, end, sus, inf)
        assert np.all(s != i)
