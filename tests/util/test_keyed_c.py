"""The C keyed-draw pass against its definition, bit for bit.

``repro.core.ckernel.keyed_raw`` restates, per key, BLAKE2b seed
derivation (``util.rng.derive_seeds``, hashlib), numpy's
``SeedSequence`` mix and PCG64's first outputs (``util.pcg.raw_outputs``).
Those two stay the definition; every test here compares the C pass
with them, or with a live ``Generator``, for exact equality.  Key
arities 1–19 cover one BLAKE2b block (up to 15 key words: 128 bytes with
the root) and two.  ``TestEveryLaneLevel`` runs each lane level this
CPU has (scalar, 4 keys per pass under AVX2, 8 under AVX-512F) through
``ckernel._keyed_raw_at``.  The C tests skip cleanly without a
toolchain; the fallback test runs everywhere.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro import observe
from repro.core import ckernel
from repro.util import rng as rng_mod
from repro.util.pcg import first_uniforms, raw_outputs, to_double
from repro.util.rng import (
    RngFactory,
    derive_seed,
    derive_seeds,
    keyed_raw,
    keyed_seeds,
    keyed_uniforms,
)

needs_ckernel = pytest.mark.skipif(
    not ckernel.available(), reason=f"no compiled kernel: {ckernel.build_error()}"
)

I64_MIN, I64_MAX = np.iinfo(np.int64).min, np.iinfo(np.int64).max
BOUNDARY_WORDS = np.array([0, -1, I64_MIN, I64_MAX, 1, I64_MIN + 1], dtype=np.int64)
ROOTS = (0, 2**64 - 1, 4242)


def definition(root: int, keys: np.ndarray, n_out: int):
    seeds = derive_seeds(root, keys)
    return seeds, raw_outputs(seeds, n_out)


def random_keys(n: int, k: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    keys = rng.integers(I64_MIN, I64_MAX, size=(n, k), dtype=np.int64, endpoint=True)
    # every boundary word in every column, and whole boundary rows
    b = BOUNDARY_WORDS.size
    keys[:b] = rng.choice(BOUNDARY_WORDS, size=(b, k))
    keys[b : 2 * b] = BOUNDARY_WORDS[:, None]
    return keys


@needs_ckernel
class TestAgainstDefinition:
    def test_random_keys_every_arity(self):
        """10^5 keys over arities 1–19 and three roots; ``n_out`` 1 and
        2 are prefixes of 3, as ``raw_outputs`` is."""
        total = 0
        for k in range(1, 20):
            for root in ROOTS:
                keys = random_keys(1_800, k, seed=100 * k + root % 97)
                seeds, words = ckernel.keyed_raw(root, keys, 3)
                want_seeds, want_words = definition(root, keys, 3)
                np.testing.assert_array_equal(seeds, want_seeds)
                np.testing.assert_array_equal(words, want_words)
                for n_out in (1, 2):
                    s, w = ckernel.keyed_raw(root, keys, n_out)
                    np.testing.assert_array_equal(s, want_seeds)
                    np.testing.assert_array_equal(w, want_words[:n_out])
                total += keys.shape[0]
        assert total >= 10**5

    @pytest.mark.parametrize("k", [1, 4, 15, 16, 19])
    def test_n_zero_and_one(self, k):
        for n in (0, 1):
            keys = random_keys(16, k, seed=k)[:n]
            seeds, words = ckernel.keyed_raw(2**64 - 1, keys, 2)
            assert seeds.shape == (n,) and words.shape == (2, n)
            assert seeds.dtype == words.dtype == np.uint64
            want_seeds, want_words = definition(2**64 - 1, keys, 2)
            np.testing.assert_array_equal(seeds, want_seeds)
            np.testing.assert_array_equal(words, want_words)

    def test_seeds_only(self):
        keys = random_keys(500, 4, seed=5)
        seeds, words = ckernel.keyed_raw(0, keys, 0)
        assert words.shape == (0, 500)
        np.testing.assert_array_equal(seeds, derive_seeds(0, keys))

    def test_against_live_generator(self):
        """10^3 keys: the scalar seed, ``PCG64.random_raw`` and the first
        ``Generator.random()`` of the stream ``spawn_generator`` builds."""
        keys = random_keys(1_000, 4, seed=9)
        seeds, words = ckernel.keyed_raw(31337, keys, 3)
        for j, row in enumerate(keys):
            seed = derive_seed(31337, *row.tolist())
            assert int(seeds[j]) == seed
            np.testing.assert_array_equal(words[:, j], np.random.PCG64(seed).random_raw(3))
            assert to_double(words[0, j]) == np.random.Generator(np.random.PCG64(seed)).random()

    def test_public_primitives_take_the_c_pass(self, monkeypatch):
        """keyed_seeds / keyed_uniforms / uniforms_for equal the
        definition, and hashlib is never reached while C is available."""
        persons = np.array([0, 5, 2**40, 3, I64_MAX], dtype=np.int64)
        f = RngFactory(11)
        want_seeds = derive_seeds(11, np.column_stack(
            [np.full(5, RngFactory.PERSON), np.full(5, -1), persons, np.ones(5, np.int64)]
        ))
        monkeypatch.setattr(rng_mod, "derive_seeds", None)  # any fallback call raises
        np.testing.assert_array_equal(keyed_seeds(11, RngFactory.PERSON, -1, persons, 1), want_seeds)
        np.testing.assert_array_equal(f.keyed_seeds(RngFactory.PERSON, -1, persons, 1), want_seeds)
        np.testing.assert_array_equal(
            f.keyed_uniforms(RngFactory.PERSON, -1, persons, 1), first_uniforms(want_seeds)
        )
        np.testing.assert_array_equal(
            f.uniforms_for(RngFactory.PERSON, -1, persons, salt=1), first_uniforms(want_seeds)
        )
        seeds, words = f.keyed_raw(2, RngFactory.PERSON, -1, persons, 1)
        np.testing.assert_array_equal(seeds, want_seeds)
        np.testing.assert_array_equal(words, raw_outputs(want_seeds, 2))

    def test_broadcast_shape_is_kept(self):
        locs = np.arange(12).reshape(3, 4)
        seeds, words = keyed_raw(5, 2, 1, locs, 0)
        assert seeds.shape == (3, 4) and words.shape == (2, 3, 4)
        np.testing.assert_array_equal(seeds.ravel(), keyed_seeds(5, 1, locs.ravel(), 0))
        np.testing.assert_array_equal(keyed_uniforms(5, 1, locs, 0), to_double(words[0]))
        scalar_seed, _ = keyed_raw(5, 1, 1, 2, 3)
        assert scalar_seed.shape == () and int(scalar_seed) == derive_seed(5, 1, 2, 3)


def test_every_column_form_builds_the_same_key_matrix():
    """Integers, numpy scalars, arrays of any integer dtype, float arrays
    (truncated, as ``np.asarray(c, dtype=np.int64)`` does), 0-d arrays and
    lists: the per-tuple seeds of the definition, one ``rng.keys`` row
    per tuple."""
    persons = np.array([0, 5, 7, 3], dtype=np.int64)
    want = np.array([derive_seed(3, 2, 9, p, 1) for p in persons.tolist()], dtype=np.uint64)
    for cols in (
        (2, 9, persons, 1),
        (np.int64(2), np.int32(9), persons.astype(np.int32), np.uint8(1)),
        (2, np.array(9), persons.astype(np.uint8), 1),
        (2.0, 9, persons + 0.5, True),
        (2, 9, persons.tolist(), 1),
        (np.full(4, 2), 9, persons, np.ones(4, dtype=np.int16)),
    ):
        with observe.observing() as obs:
            np.testing.assert_array_equal(keyed_seeds(3, *cols), want)
        assert obs.counters["rng.keys"] == 4
    np.testing.assert_array_equal(keyed_seeds(3, 2, 9, persons[:1], 1), want[:1])


def test_a_key_numpy_cannot_take_never_reaches_c(monkeypatch):
    monkeypatch.setattr(ckernel, "_loaded", lambda: pytest.fail("C was called"))
    monkeypatch.setattr(rng_mod, "derive_seeds", lambda *a: pytest.fail("hashlib was called"))
    for cols, error in (
        ((1, None, np.arange(3)), TypeError),
        ((1, 2**63, np.arange(3)), OverflowError),
        ((1, np.array(["x", "y", "z"]), 0), ValueError),
        ((1, np.arange(3), np.arange(4)), ValueError),
    ):
        with pytest.raises(error):
            keyed_uniforms(5, *cols)
    if ckernel.available():  # the C entry itself vets its matrix
        for keys in (np.zeros((3, 2)), np.zeros((3, 2), dtype=np.int32), [[1, 2]],
                     np.zeros((2, 3), dtype=np.int64)[:, :2]):
            with pytest.raises(ValueError, match="keys must be"):
                ckernel.keyed_raw(5, keys, 1)


@needs_ckernel
def test_read_only_keys():
    keys = random_keys(21, 3, seed=2)
    keys.setflags(write=False)
    seeds, words = ckernel.keyed_raw(7, keys, 2)
    np.testing.assert_array_equal(seeds, derive_seeds(7, keys))
    np.testing.assert_array_equal(words, raw_outputs(seeds, 2))


LEVELS = list(range(ckernel.keyed_isa() + 1)) if ckernel.available() else []


@needs_ckernel
@pytest.mark.parametrize("level", LEVELS, ids=[ckernel.KEYED_ISAS[lv] for lv in LEVELS])
class TestEveryLaneLevel:
    """The pass at each lane level this CPU runs — the scalar loop, then
    4 (AVX2) and 8 (AVX-512F) keys at a time — against the definition."""

    def test_every_tail_residue_arity_root_and_n_out(self, level):
        """n = 0 … 2L+1 for every L, so each lane count has short last
        batches of every size; arities 1–19 reach the second BLAKE2b
        compression; ``n_out`` 0–3 at every shape."""
        n_max = 2 * max(ckernel.KEYED_LANES) + 1
        for k in range(1, 20):
            keys = random_keys(n_max, k, seed=k)
            for root in ROOTS:
                want_seeds, want_words = definition(root, keys, 3)
                for n in range(n_max + 1):
                    for n_out in range(4):
                        seeds, words = ckernel._keyed_raw_at(level, root, keys[:n], n_out)
                        assert seeds.shape == (n,) and words.shape == (n_out, n)
                        np.testing.assert_array_equal(seeds, want_seeds[:n])
                        np.testing.assert_array_equal(words, want_words[:n_out, :n])

    def test_random_keys(self, level):
        """10^5 keys of arity 4 — a (day, person)-style stream — plus
        1,001 of arity 17, both counts off every lane multiple."""
        for k, n, root in ((4, 10**5, 4242), (17, 1_001, 2**64 - 1)):
            keys = random_keys(n, k, seed=level + k)
            seeds, words = ckernel._keyed_raw_at(level, root, keys, 2)
            want_seeds, want_words = definition(root, keys, 2)
            np.testing.assert_array_equal(seeds, want_seeds)
            np.testing.assert_array_equal(words, want_words)


@needs_ckernel
def test_keyed_raw_runs_the_widest_level(monkeypatch):
    """The level read once at load is the one every call passes to C."""
    lib, levels = ckernel._loaded(), []

    class Spy:
        def repro_keyed_raw(self, *args):
            levels.append(args[-1])
            return lib.repro_keyed_raw(*args)

    monkeypatch.setattr(ckernel, "_loaded", Spy)
    keys = random_keys(37, 3, seed=0)
    seeds = ckernel.keyed_raw(7, keys, 1)[0]
    assert levels == [ckernel.keyed_isa()]
    np.testing.assert_array_equal(seeds, derive_seeds(7, keys))


@needs_ckernel
def test_level_above_the_cpu_never_reaches_c(monkeypatch):
    assert 0 <= ckernel.keyed_isa() < len(ckernel.KEYED_ISAS) == len(ckernel.KEYED_LANES)
    monkeypatch.setattr(ckernel, "_loaded", lambda: pytest.fail("C was called"))
    keys = random_keys(20, 3, seed=1)
    for level in (ckernel.keyed_isa() + 1, len(ckernel.KEYED_ISAS), -1):
        with pytest.raises(ValueError, match="lane level"):
            ckernel._keyed_raw_at(level, 0, keys, 1)


@pytest.mark.parametrize("root", [-1, 2**64])
def test_unchecked_root_never_reaches_c(root):
    """A uint64 C argument would wrap it to a valid-looking other root."""
    for call in (
        lambda: keyed_raw(root, 1, 1, np.arange(3)),
        lambda: keyed_seeds(root, 1, np.arange(3)),
        lambda: keyed_uniforms(root, 1, np.arange(3)),
    ):
        with pytest.raises(ValueError, match="root seed"):
            call()


_FALLBACK_PROBE = """
import hashlib, json
import numpy as np
from repro.core import ckernel
from repro.util import rng
calls = []
real = rng.derive_seeds
rng.derive_seeds = lambda *a: calls.append(1) or real(*a)
keys = np.arange(3000, dtype=np.int64) * 7919 - 10**6
f = rng.RngFactory(2**64 - 1)
seeds, words = f.keyed_raw(3, 1, -1, keys, 2**62)
u = f.uniforms_for(2, 7, keys, salt=3)
print(json.dumps({
    "available": ckernel.available(),
    "error": ckernel.build_error(),
    "hashlib_calls": len(calls),
    "digest": hashlib.sha256(seeds.tobytes() + words.tobytes() + u.tobytes()).hexdigest(),
}))
"""


def _probe(env_extra: dict) -> dict:
    env = dict(os.environ, **env_extra)
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    out = subprocess.run(
        [sys.executable, "-c", _FALLBACK_PROBE],
        check=True, env=env, capture_output=True, text=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def test_no_ckernel_falls_back_to_the_definition_with_equal_bytes():
    """REPRO_NO_CKERNEL=1 takes the hashlib + numpy path (the probe
    counts its calls) and yields the same bytes as this process."""
    off = _probe({"REPRO_NO_CKERNEL": "1"})
    assert not off["available"] and "REPRO_NO_CKERNEL" in off["error"]
    assert off["hashlib_calls"] == 2
    keys = np.arange(3000, dtype=np.int64) * 7919 - 10**6
    f = RngFactory(2**64 - 1)
    seeds, words = f.keyed_raw(3, 1, -1, keys, 2**62)
    u = f.uniforms_for(2, 7, keys, salt=3)
    here = hashlib.sha256(seeds.tobytes() + words.tobytes() + u.tobytes()).hexdigest()
    assert off["digest"] == here
    if ckernel.available():
        on = _probe({"REPRO_NO_CKERNEL": "0"})
        assert on["available"] and on["hashlib_calls"] == 0
        assert on["digest"] == here
