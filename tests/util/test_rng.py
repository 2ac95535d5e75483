"""Determinism and independence of the keyed RNG streams."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.util.rng import RngFactory, derive_seed, spawn_generator


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)

    def test_key_order_matters(self):
        assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)

    def test_root_seed_matters(self):
        assert derive_seed(0, 5) != derive_seed(1, 5)

    def test_negative_keys_allowed(self):
        # Day -1 is used for index-case seeding.
        assert derive_seed(7, -1, 3) != derive_seed(7, 1, 3)

    def test_64bit_range(self):
        s = derive_seed(2**63, 2**62)
        assert 0 <= s < 2**64

    @given(st.integers(0, 2**32), st.integers(-(2**31), 2**31))
    def test_always_in_range(self, root, key):
        assert 0 <= derive_seed(root, key) < 2**64

    def test_no_trivial_collisions_across_adjacent_keys(self):
        seeds = {derive_seed(0, d, p) for d in range(20) for p in range(200)}
        assert len(seeds) == 20 * 200


class TestSpawnGenerator:
    def test_reproducible_draws(self):
        a = spawn_generator(9, 1, 2).random(5)
        b = spawn_generator(9, 1, 2).random(5)
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = spawn_generator(9, 1, 2).random(5)
        b = spawn_generator(9, 1, 3).random(5)
        assert not np.array_equal(a, b)


class TestRngFactory:
    def test_requires_integer_seed(self):
        with pytest.raises(TypeError):
            RngFactory("seed")  # type: ignore[arg-type]

    @pytest.mark.parametrize("root", [-1, 2**64, -(2**63)])
    def test_out_of_range_root_fails_at_construction(self, root):
        # A uint64 C argument would wrap -1 to 2**64 - 1 and draw a
        # different, valid-looking epidemic: refuse before any hashing.
        with pytest.raises(ValueError, match=r"root seed must be in \[0, 2\*\*64\)"):
            RngFactory(root)

    @pytest.mark.parametrize("root", [0, 2**64 - 1, np.uint64(2**64 - 1)])
    def test_boundary_roots_accepted(self, root):
        assert RngFactory(root).root_seed == int(root)

    def test_person_stream_matches_generic(self):
        f = RngFactory(4)
        a = f.person_stream(3, 17).random()
        b = f.stream(RngFactory.PERSON, 3, 17).random()
        assert a == b

    def test_uniforms_for_order_independent(self):
        f = RngFactory(4)
        ids = [5, 9, 2]
        fwd = f.uniforms_for(RngFactory.INTERVENTION, 1, ids)
        rev = f.uniforms_for(RngFactory.INTERVENTION, 1, ids[::-1])
        np.testing.assert_array_equal(fwd, rev[::-1])

    def test_uniforms_for_uniformity(self):
        f = RngFactory(0)
        u = f.uniforms_for(RngFactory.PERSON, 0, range(4000))
        # Keyed streams should still look U(0,1) in aggregate.
        assert 0.45 < u.mean() < 0.55
        assert abs(np.var(u) - 1 / 12) < 0.01

    def test_streams_statistically_independent(self):
        # Draws keyed (day, p) and (day, p+1) should be uncorrelated.
        f = RngFactory(2)
        a = f.uniforms_for(RngFactory.PERSON, 0, range(2000))
        b = f.uniforms_for(RngFactory.PERSON, 1, range(2000))
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 0.08
