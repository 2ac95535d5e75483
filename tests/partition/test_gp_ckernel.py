"""The partitioner's C loops against the list-backed ones they restate.

``ckernel.heavy_edge_matching`` / ``contract`` / ``fm_refine`` run the
loops of ``coarsen.heavy_edge_matching``, ``coarsen.contract`` and
``refine._fm_passes`` whenever the library loads; the list-backed loops
stay as the definition and the compiler-less fallback (run here by
making ``ckernel.available`` answer False).  The partition carries the
virtual-time goldens, so every comparison is ``==`` on the arrays, the
generator state and the work counters.  Every array is vetted before
any C runs: a bad CSR, order, match or part raises ``ValueError``.
"""

import contextlib
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import observe
from repro.core import ckernel
from repro.partition import coarsen, refine
from repro.partition.csr import CSRGraph
from repro.spec import PartitionSpec, PopulationSpec

from .test_gp_exact import _HEAVY_TAILED_24K, TARGET_FRACS, UBFACTORS, _random_part, graphs

pytestmark = pytest.mark.skipif(
    not ckernel.available(), reason=f"no compiled kernel: {ckernel.build_error()}"
)


@contextlib.contextmanager
def list_loops():
    """Run the partitioner on its list-backed loops, as without a compiler."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ckernel, "available", lambda: False)
        yield


@contextlib.contextmanager
def on_path(path: str):
    with list_loops() if path == "lists" else contextlib.nullcontext():
        yield


def _same_arrays(got, want, names):
    for name, a, b in zip(names, got, want):
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


class TestAgainstListLoops:
    @given(graphs(), st.integers(0, 99))
    @settings(max_examples=150, deadline=None)
    def test_heavy_edge_matching_and_rng_consumption(self, g, seed):
        rng_c, rng_l = np.random.default_rng(seed), np.random.default_rng(seed)
        got = coarsen.heavy_edge_matching(g, rng_c)
        with list_loops():
            want = coarsen.heavy_edge_matching(g, rng_l)
        _same_arrays([got], [want], ["match"])
        assert rng_c.bit_generator.state == rng_l.bit_generator.state

    @given(graphs(), st.integers(0, 99))
    @settings(max_examples=150, deadline=None)
    def test_contract(self, g, seed):
        match = coarsen.heavy_edge_matching(g, np.random.default_rng(seed))
        coarse, cmap = coarsen.contract(g, match)
        with list_loops():
            want, want_map = coarsen.contract(g, match)
        names = ["xadj", "adjncy", "adjwgt", "vwgt", "coarse_map"]
        _same_arrays([*(getattr(coarse, n) for n in names[:4]), cmap],
                     [*(getattr(want, n) for n in names[:4]), want_map], names)
        coarse.validate()

    @given(graphs(), st.integers(0, 99), TARGET_FRACS, UBFACTORS, st.integers(1, 6))
    @settings(max_examples=200, deadline=None)
    def test_fm_passes(self, g, seed, target_frac, ubfactor, max_passes):
        part = _random_part(g, seed)
        want_part = part.copy()
        passes = [(list(p), list(gain))
                  for p, gain in refine._fm_passes(g, want_part, target_frac, ubfactor, max_passes)]
        gain, n_passes, *_ = ckernel.fm_refine(g, part, target_frac, ubfactor, max_passes)
        assert n_passes == len(passes)
        assert part.tolist() == passes[-1][0] == want_part.tolist()
        assert gain.tolist() == passes[-1][1]
        # the maintained gain is the definition's at every pass count
        assert gain.tolist() == refine.all_gains(g, part).tolist()

    @given(graphs(), st.integers(0, 99), TARGET_FRACS, UBFACTORS, st.integers(1, 6))
    @settings(max_examples=100, deadline=None)
    def test_fm_refine_counters(self, g, seed, target_frac, ubfactor, max_passes):
        parts, counters = [], []
        for path in ("c", "lists"):
            part = _random_part(g, seed)
            with on_path(path), observe.observing() as obs:
                assert refine.fm_refine(g, part, target_frac, ubfactor, max_passes) is part
            parts.append(part)
            counters.append({k: v for k, v in obs.counters.items() if k.startswith("partition.")})
        _same_arrays(parts[:1], parts[1:], ["part"])
        assert counters[0] == counters[1]
        assert set(counters[0]) == {"partition.fm_passes", "partition.fm_moves",
                                    "partition.fm_pushes"}


def _pinned(population: PopulationSpec, k: int):
    """MD5 of ``person_part + location_part`` and the partition counters."""
    with observe.observing() as obs:
        _, part = PartitionSpec("gp", k, split=True).build(population.build())
    digest = hashlib.md5(part.person_part.tobytes() + part.location_part.tobytes()).hexdigest()
    names = ("levels", "hem_matched", "fm_passes", "fm_moves", "fm_pushes")
    return digest, tuple(int(obs.counters[f"partition.{n}"]) for n in names)


@pytest.mark.parametrize("path", ["c", "lists"])
class TestPinnedOnBothPaths:
    def test_ladder_charm_gp_split(self, path):
        population = PopulationSpec(kind="generated", n_persons=10_000, seed=20140519)
        with on_path(path):
            assert _pinned(population, 16) == (
                "507573d5538b1b9df1845e581fa4e9f2", (122, 105_538, 348, 4_119, 50_012))

    @pytest.mark.slow
    @pytest.mark.parametrize("k, md5, counters", [
        (2, "37f31356d57061e3aeebebc3d7c52657", (23, 40_534, 67, 4_534, 18_265)),
        (16, "0bea22a0acf8a8a9ec1240cf87e3d79d", (231, 125_486, 469, 12_045, 33_906)),
    ])
    def test_heavy_tailed_24k(self, path, k, md5, counters):
        with on_path(path):
            assert _pinned(_HEAVY_TAILED_24K, k) == (md5, counters)


def _square() -> CSRGraph:
    """The 4-cycle 0-1-2-3-0, unit weights, two constraints."""
    u, v = np.array([0, 1, 2, 0]), np.array([1, 2, 3, 3])
    return CSRGraph.from_edge_list(4, u, v, np.ones(4, np.int64), np.ones((4, 2), np.int64))


def _with(g: CSRGraph, **arrays) -> CSRGraph:
    fields = {k: getattr(g, k) for k in ("xadj", "adjncy", "adjwgt", "vwgt")}
    return CSRGraph(**{**fields, **{k: np.array(v) for k, v in arrays.items()}})


_CALLS = {
    "heavy_edge_matching": lambda g: ckernel.heavy_edge_matching(g, np.arange(4)),
    "contract": lambda g: ckernel.contract(g, np.array([1, 0, 3, 2])),
    "fm_refine": lambda g: ckernel.fm_refine(g, np.array([0, 0, 1, 1], np.int8), 0.5, 1.1, 6),
}
_BAD_CSR = {
    "xadj starts above 0": (dict(xadj=[1, 2, 4, 6, 8]), "xadj must start at 0"),
    "xadj decreases": (dict(xadj=[0, 3, 2, 6, 8]), "never decrease"),
    "xadj ends short of adjncy": (dict(xadj=[0, 2, 4, 6, 7]), "end at len"),
    "xadj ends past adjncy": (dict(xadj=[0, 2, 4, 6, 9]), "end at len"),
    "empty xadj": (dict(xadj=np.empty(0, np.int64)), "xadj must be a 1-D array"),
    "adjncy negative": (dict(adjncy=[1, 3, 0, 2, 1, 3, 0, -1]), "adjncy out of range"),
    "adjncy past n": (dict(adjncy=[1, 3, 0, 2, 1, 3, 0, 4]), "adjncy out of range"),
    "adjwgt short": (dict(adjwgt=np.ones(7, np.int64)), "adjwgt must be a int64 array of 8"),
    "adjwgt float": (dict(adjwgt=np.ones(8)), "adjwgt must be a int64 array"),
    "vwgt rows short": (dict(vwgt=np.ones((3, 2), np.int64)), "vwgt must be a int64 array"),
}


class TestVetting:
    def test_the_square_is_valid(self):
        g = _square()
        g.validate()
        for call in _CALLS.values():
            call(g)

    @pytest.mark.parametrize("entry", sorted(_CALLS))
    @pytest.mark.parametrize("case", sorted(_BAD_CSR))
    def test_bad_csr_raises_naming_the_array(self, entry, case):
        arrays, message = _BAD_CSR[case]
        with pytest.raises(ValueError, match=message):
            _CALLS[entry](_with(_square(), **arrays))

    def test_int32_columns_are_widened(self):
        g = _square()
        narrow = _with(g, **{k: getattr(g, k).astype(np.int32) for k in ("xadj", "adjncy")})
        np.testing.assert_array_equal(ckernel.heavy_edge_matching(narrow, np.arange(4)),
                                      ckernel.heavy_edge_matching(g, np.arange(4)))

    @pytest.mark.parametrize("order, message", [
        (np.arange(3), "order must be a int64 array of 4 entries"),
        (np.array([0, 1, 2, 4]), "order out of range"),
        (np.array([0, 1, -1, 3]), "order out of range"),
        (np.arange(4.0), "order must be a int64 array"),
    ])
    def test_bad_order(self, order, message):
        with pytest.raises(ValueError, match=message):
            ckernel.heavy_edge_matching(_square(), order)

    @pytest.mark.parametrize("match, message", [
        (np.array([1, 0, 3]), "match must be a int64 array of 4 entries"),
        (np.array([1, 0, 4, 2]), "match out of range"),
        (np.array([-1, 0, 3, 2]), "match out of range"),
    ])
    def test_bad_match(self, match, message):
        with pytest.raises(ValueError, match=message):
            ckernel.contract(_square(), match)

    def test_a_read_only_part_is_refused(self):
        part = np.array([0, 0, 1, 1], np.int8)
        part.flags.writeable = False
        with pytest.raises(ValueError, match="part must be writeable"):
            ckernel.fm_refine(_square(), part, 0.5, 1.1, 6)

    @pytest.mark.parametrize("part, message", [
        (np.array([0, 0, 1], np.int8), "part must be a int8 array of 4 entries"),
        (np.array([0, 0, 1, 1], np.int64), "part must be a int8 array"),
        (np.array([0, 2, 1, 1], np.int8), "part must hold only 0 / 1"),
        (np.array([0, -1, 1, 1], np.int8), "part must hold only 0 / 1"),
    ])
    def test_bad_part_is_left_untouched(self, part, message):
        before = part.copy()
        with pytest.raises(ValueError, match=message):
            ckernel.fm_refine(_square(), part, 0.5, 1.1, 6)
        np.testing.assert_array_equal(part, before)
