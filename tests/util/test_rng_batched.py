"""Batched keyed-draw primitives vs the per-stream reference.

The contract under test is *bit-for-bit* equality: every element the
vectorised pipeline (``derive_seeds`` → ``repro.util.pcg`` →
``keyed_uniforms`` / ``DwellDistribution.replay``) produces must equal
what a freshly constructed ``np.random.Generator(np.random.PCG64(seed))``
would draw.  The golden traces and the cross-kernel differential both
rest on this, and the replays restate numpy internals (PCG64 output,
``Generator.integers``' 32-bit Lemire, ``random_geometric_search``), so
every one of them is pinned here against live numpy: an upgrade that
changes any of it breaks loudly, not silently.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.disease import DwellDistribution
from repro.util.pcg import first_uniforms, raw_outputs, to_double
from repro.util.rng import RngFactory, derive_seed, derive_seeds, keyed_seeds, keyed_uniforms

i64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)


EDGE_SEEDS = np.array([0, 1, 2, 2**32 - 1, 2**32, 2**63, 2**64 - 1], dtype=np.uint64)


def reference_first_uniform(seed: int) -> float:
    return np.random.Generator(np.random.PCG64(int(seed))).random()


class TestFirstUniforms:
    def test_edge_seeds_exact(self):
        expected = np.array([reference_first_uniform(s) for s in EDGE_SEEDS])
        np.testing.assert_array_equal(first_uniforms(EDGE_SEEDS), expected)

    def test_random_seed_sample_exact(self):
        rng = np.random.default_rng(1234)
        seeds = rng.integers(0, 2**64, size=500, dtype=np.uint64)
        expected = np.array([reference_first_uniform(s) for s in seeds])
        np.testing.assert_array_equal(first_uniforms(seeds), expected)

    def test_empty(self):
        out = first_uniforms(np.empty(0, dtype=np.uint64))
        assert out.shape == (0,) and out.dtype == np.float64

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    @settings(max_examples=50)
    def test_any_seed_exact(self, seed):
        got = first_uniforms(np.array([seed], dtype=np.uint64))[0]
        assert got == reference_first_uniform(seed)


def sample_seeds(n=10_000, seed=99):
    random = np.random.default_rng(seed).integers(0, 2**64, size=n, dtype=np.uint64)
    return np.concatenate([EDGE_SEEDS, random])


class TestRawOutputs:
    def test_first_k_outputs_exact(self):
        seeds = sample_seeds(500)
        got = raw_outputs(seeds, 5)
        assert got.shape == (5, seeds.size) and got.dtype == np.uint64
        expected = np.array([np.random.PCG64(int(s)).random_raw(5) for s in seeds]).T
        np.testing.assert_array_equal(got, expected)

    def test_outputs_are_what_generator_random_scales(self):
        seeds = sample_seeds(200)
        gens = [np.random.Generator(np.random.PCG64(int(s))) for s in seeds]
        expected = np.array([g.random(3) for g in gens]).T
        np.testing.assert_array_equal(to_double(raw_outputs(seeds, 3)), expected)

    def test_shapes(self):
        assert raw_outputs(np.empty(0, dtype=np.uint64), 2).shape == (2, 0)
        assert raw_outputs(EDGE_SEEDS, 0).shape == (0, EDGE_SEEDS.size)
        grid = EDGE_SEEDS[:6].reshape(2, 3)
        np.testing.assert_array_equal(
            raw_outputs(grid, 2), raw_outputs(grid.ravel(), 2).reshape(2, 2, 3)
        )

    @given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(1, 4))
    @settings(max_examples=50)
    def test_any_seed_exact(self, seed, k):
        got = raw_outputs(np.array([seed], dtype=np.uint64), k)[:, 0]
        np.testing.assert_array_equal(got, np.random.PCG64(seed).random_raw(k))


def live_dwell(dwell, seeds, drawn):
    """``dwell.sample`` on each seed's real Generator, after ``drawn`` doubles."""
    out = np.empty(seeds.size, dtype=np.int32)
    for j, s in enumerate(seeds):
        gen = np.random.Generator(np.random.PCG64(int(s)))
        gen.random(drawn)
        out[j] = dwell.sample(gen, 1)[0]
    return out


class TestDwellReplay:
    """``DwellDistribution.replay`` vs ``sample`` on a live Generator, as
    the stream's first draw (``infect``) and as its second, after one
    ``random()`` (``advance_day``)."""

    def check(self, dwell, seeds, all_replayed=True):
        words = raw_outputs(seeds, 2)
        for drawn in (0, 1):
            days, replayed = dwell.replay(words[drawn])
            assert days.dtype == np.int32 and replayed.dtype == bool
            expected = live_dwell(dwell, seeds, drawn)
            np.testing.assert_array_equal(days[replayed], expected[replayed])
            assert replayed.all() == all_replayed
        return replayed

    def test_lemire_int32_exact(self):
        seeds = sample_seeds()
        for lo, hi in [(1, 3), (3, 6), (1, 2), (2, 30), (1, 2**16), (5, 2**31 - 1)]:
            self.check(DwellDistribution.uniform(lo, hi), seeds)

    def test_lemire_one_point_range_draws_nothing(self):
        days, replayed = DwellDistribution.uniform(4, 4).replay(raw_outputs(EDGE_SEEDS, 1)[0])
        assert replayed.all() and (days == 4).all()
        np.testing.assert_array_equal(days, live_dwell(DwellDistribution.uniform(4, 4), EDGE_SEEDS, 0))

    def test_lemire_rejections_are_flagged_not_guessed(self):
        # 2**32 mod 1.5e9 = 1_294_967_296: ~30% of first tries are rejected
        replayed = self.check(
            DwellDistribution.uniform(1, 1_500_000_000), sample_seeds(3_000), all_replayed=False
        )
        assert 0.6 < replayed.mean() < 0.8
        # span + 1 = 6, threshold 2**32 mod 6 = 4: low halves 0 and
        # 715_827_883 (6x = 2**32 + 2) are rejected, 715_827_884 (+ 8) is
        # the first accepted word of the second bucket
        words = np.array([0, 715_827_883, 715_827_884, 2**32 - 1], dtype=np.uint64)
        days, replayed = DwellDistribution.uniform(1, 6).replay(words | np.uint64(7 << 32))
        np.testing.assert_array_equal(replayed, [False, False, True, True])
        np.testing.assert_array_equal(days[2:], [2, 6])

    def test_geometric_search_exact(self):
        seeds = sample_seeds()
        for p in (1.0, 0.9, 0.5, 0.4, 1 / 3):
            self.check(DwellDistribution.geometric(p), seeds)

    def test_geometric_search_boundary_is_strict(self):
        # numpy loops ``while (U > sum)``: U == p stops at X = 1
        half = np.array([2**63, 2**63 + 2**11], dtype=np.uint64)
        days, replayed = DwellDistribution.geometric(0.5).replay(half)
        np.testing.assert_array_equal(days, [1, 2])
        assert replayed.all()

    def test_ziggurat_kinds_are_left_to_numpy(self):
        words = raw_outputs(EDGE_SEEDS, 1)[0]
        for dwell in (DwellDistribution.geometric(0.33), DwellDistribution.gamma(2.0, 1.5)):
            assert not dwell.replay(words)[1].any()

    def test_constant_kinds(self):
        words = raw_outputs(EDGE_SEEDS, 1)[0]
        for dwell in (DwellDistribution.fixed(3), DwellDistribution.forever()):
            days, replayed = dwell.replay(words)
            assert replayed.all()
            np.testing.assert_array_equal(days, live_dwell(dwell, EDGE_SEEDS, 0))

    def test_empty(self):
        none = np.empty(0, dtype=np.uint64)
        for dwell in (
            DwellDistribution.fixed(2),
            DwellDistribution.uniform(1, 3),
            DwellDistribution.geometric(0.5),
            DwellDistribution.gamma(1.0, 1.0),
            DwellDistribution.forever(),
        ):
            days, replayed = dwell.replay(none)
            assert days.shape == replayed.shape == (0,)


class TestDeriveSeeds:
    def test_matches_scalar_derivation(self):
        keys = np.array([[0, 0, 0], [1, 2, 3], [-1, 5, 2**31], [7, -9, -(2**62)]])
        got = derive_seeds(42, keys)
        expected = np.array([derive_seed(42, *row) for row in keys], dtype=np.uint64)
        np.testing.assert_array_equal(got, expected)

    def test_one_dimensional_input_is_one_row(self):
        got = derive_seeds(0, np.array([3, 4]))
        assert got.shape == (1,)
        assert int(got[0]) == derive_seed(0, 3, 4)

    def test_empty(self):
        out = derive_seeds(0, np.empty((0, 4), dtype=np.int64))
        assert out.shape == (0,) and out.dtype == np.uint64

    @given(st.integers(min_value=0, max_value=2**64 - 1), st.lists(i64, min_size=1, max_size=5))
    @settings(max_examples=50)
    def test_any_key_tuple(self, root, keys):
        got = derive_seeds(root, np.array([keys], dtype=np.int64))
        assert int(got[0]) == derive_seed(root, *keys)


class TestKeyedSeeds:
    def test_seeds_the_stream_the_factory_would_build(self):
        f = RngFactory(11)
        persons = np.array([0, 5, 2**40, 3])
        got = f.keyed_seeds(RngFactory.PERSON, -1, persons, 1)
        assert got.dtype == np.uint64 and got.shape == persons.shape
        assert [int(s) for s in got] == [f.seed(RngFactory.PERSON, -1, int(p), 1) for p in persons]
        np.testing.assert_array_equal(got, keyed_seeds(11, RngFactory.PERSON, -1, persons, 1))
        np.testing.assert_array_equal(
            first_uniforms(got), f.keyed_uniforms(RngFactory.PERSON, -1, persons, 1)
        )


class TestKeyedUniforms:
    def test_matches_per_stream_draws(self):
        f = RngFactory(7)
        days = np.arange(40) % 5
        persons = np.arange(40) * 13 % 29
        got = f.keyed_uniforms(RngFactory.LOCATION, days, persons)
        expected = np.array(
            [f.stream(RngFactory.LOCATION, int(d), int(p)).random()
             for d, p in zip(days, persons)]
        )
        np.testing.assert_array_equal(got, expected)

    def test_scalar_columns_broadcast(self):
        got = keyed_uniforms(3, 2, np.arange(10), 0)
        expected = np.array(
            [np.random.Generator(np.random.PCG64(derive_seed(3, 2, i, 0))).random()
             for i in range(10)]
        )
        np.testing.assert_array_equal(got, expected)

    def test_preserves_shape(self):
        locs = np.arange(12).reshape(3, 4)
        got = keyed_uniforms(0, 1, locs)
        assert got.shape == (3, 4)
        np.testing.assert_array_equal(got.ravel(), keyed_uniforms(0, 1, locs.ravel()))


class TestUniformsForRegression:
    """The satellite: ``uniforms_for`` must delegate without drift."""

    def test_exact_equality_with_per_stream_reference(self):
        f = RngFactory(4)
        ids = [5, 9, 2, 0, 2**31 - 1]
        for salt in (0, 1, 17):
            got = f.uniforms_for(RngFactory.INTERVENTION, 3, ids, salt)
            expected = np.array(
                [f.stream(RngFactory.INTERVENTION, 3, i, salt).random() for i in ids]
            )
            np.testing.assert_array_equal(got, expected)

    def test_accepts_generators_and_ranges(self):
        f = RngFactory(0)
        a = f.uniforms_for(RngFactory.PERSON, 0, range(50))
        b = f.uniforms_for(RngFactory.PERSON, 0, (i for i in range(50)))
        np.testing.assert_array_equal(a, b)

    def test_integer_ndarray_fast_path_is_exact(self):
        f = RngFactory(9)
        ids = [7, 0, 3, 3, 250]
        expected = np.array([f.stream(RngFactory.SCENARIO, 2, i, 5).random() for i in ids])
        for dtype in (np.int64, np.int32, np.uint8, np.intp):
            got = f.uniforms_for(RngFactory.SCENARIO, 2, np.array(ids, dtype=dtype), salt=5)
            np.testing.assert_array_equal(got, expected)
        # non-integer arrays keep truncating through ``int()``
        got = f.uniforms_for(RngFactory.SCENARIO, 2, np.array(ids, dtype=float) + 0.5, salt=5)
        np.testing.assert_array_equal(got, expected)

    def test_empty_ids(self):
        f = RngFactory(0)
        out = f.uniforms_for(RngFactory.PERSON, 0, [])
        assert out.shape == (0,)
        assert f.uniforms_for(RngFactory.PERSON, 0, np.empty(0, dtype=np.int64)).shape == (0,)

    @given(
        st.integers(min_value=0, max_value=2**32),
        st.integers(min_value=-1, max_value=400),
        st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=20),
        st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=30)
    def test_property_exact(self, root, day, ids, salt):
        f = RngFactory(root)
        got = f.uniforms_for(RngFactory.PERSON, day, ids, salt)
        expected = np.array(
            [f.stream(RngFactory.PERSON, day, i, salt).random() for i in ids]
        )
        np.testing.assert_array_equal(got, expected)
