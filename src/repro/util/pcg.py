"""Vectorised re-implementation of numpy's seed→PCG64-output pipeline.

The keyed-RNG contract (:mod:`repro.util.rng`) is that a stream's draws
depend only on its derived 64-bit seed, never on execution order.  The
hot paths, however, need only the *first one or two* draws per key — a
coin flip per (day, location, person), a branch and a dwell per PTTS
transition — and paying a full ``Generator(PCG64(SeedSequence(seed)))``
construction (~15 µs) for them is what put the per-person loops at the
top of the profile.

This module replays, with pure ``uint32``/``uint64`` numpy array
arithmetic, precisely what numpy does between an integer seed and the
stream's first raw outputs:

1. ``SeedSequence(seed).generate_state(4, uint64)`` — O'Neill-style
   entropy pool mixing (``_seedseq_state``);
2. PCG64 stream initialisation from those four words and one LCG step
   (128-bit multiply-add, carried as hi/lo ``uint64`` pairs);
3. per output, one more LCG step and the XSL-RR output permutation
   (``raw_outputs``) — the 64-bit words every ``Generator``
   distribution is computed from;
4. the 53-bit mantissa scaling of ``Generator.random()``
   (``to_double``; ``first_uniforms`` is output 0 through it).

Two further ``Generator`` transforms of a raw word are restated for the
PTTS dwell draws (:meth:`repro.core.disease.DwellDistribution.replay`):
``integers(lo, hi, dtype=int32)`` (``bounded_int32``) and ``geometric(p)``
for ``p >= 1/3`` (``geometric_search``).  Each flags the rare rows it
cannot finish from one word instead of guessing, so the caller can hand
those to a live ``Generator``.

``tests/util/test_rng_batched.py`` pins all of it bit-for-bit against
live numpy (``PCG64.random_raw``, ``Generator.random`` / ``integers`` /
``geometric``) across edge and random seeds — any numpy behaviour
change breaks loudly, not silently.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "raw_outputs",
    "to_double",
    "first_uniforms",
    "bounded_int32",
    "geometric_search",
    "GEOMETRIC_SEARCH_MIN_P",
]

_U32 = np.uint32
_U64 = np.uint64

# SeedSequence mixing constants (numpy _bit_generator.pyx).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = _U32(0xCA01F9DD)
_MIX_MULT_R = _U32(0x4973F715)
_XSHIFT = _U32(16)
_M32 = (1 << 32) - 1

# PCG64's default 128-bit LCG multiplier, split into 64-bit halves.
_PCG_MULT_HI = _U64(2549297995355413924)
_PCG_MULT_LO = _U64(4865540595714422341)

_LOW32 = _U64(0xFFFFFFFF)
_DOUBLE_SCALE = 1.0 / 9007199254740992.0  # 2**-53


def _hash_const_schedule(init: int, mult: int, n: int) -> list[tuple[np.uint32, np.uint32]]:
    """The (xor, multiply) constant pairs of ``n`` sequential hashmix calls.

    numpy evolves a scalar ``hash_const`` across calls; the schedule is
    input-independent, so it can be precomputed (also sidestepping the
    scalar-overflow warnings numpy emits for ``uint32`` scalar ops).
    """
    out = []
    hc = init
    for _ in range(n):
        xor_const = hc
        hc = (hc * mult) & _M32
        out.append((_U32(xor_const), _U32(hc)))
    return out


# mix_entropy performs 4 pool-fill + 12 cross-mix hashmix calls;
# generate_state(4, uint64) performs 8 more with a fresh constant.
_MIX_SCHEDULE = _hash_const_schedule(_INIT_A, _MULT_A, 16)
_GEN_SCHEDULE = _hash_const_schedule(_INIT_B, _MULT_B, 8)


def _hashmix(value: np.ndarray, schedule_entry) -> np.ndarray:
    xor_const, mul_const = schedule_entry
    value = (value ^ xor_const) * mul_const
    return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_MULT_L * x - _MIX_MULT_R * y
    return r ^ (r >> _XSHIFT)


def _seedseq_state(seeds: np.ndarray) -> tuple[np.ndarray, ...]:
    """``SeedSequence(s).generate_state(4, uint64)`` for every seed.

    Returns the four words as separate arrays ``(w0, w1, w2, w3)``.
    """
    entropy = (
        (seeds & _LOW32).astype(_U32),  # low word first (little-endian)
        (seeds >> _U64(32)).astype(_U32),
        np.zeros(seeds.shape, dtype=_U32),
        np.zeros(seeds.shape, dtype=_U32),
    )
    sched = iter(_MIX_SCHEDULE)
    pool = [_hashmix(entropy[i], next(sched)) for i in range(4)]
    for i_src in range(4):
        for i_dst in range(4):
            if i_src != i_dst:
                pool[i_dst] = _mix(pool[i_dst], _hashmix(pool[i_src], next(sched)))
    out32 = [_hashmix(pool[i % 4], _GEN_SCHEDULE[i]) for i in range(8)]
    # uint32 pairs combine low-word-first into uint64 output words.
    return tuple(
        out32[2 * i].astype(_U64) | (out32[2 * i + 1].astype(_U64) << _U64(32))
        for i in range(4)
    )


def _mul128(ah, al, bh, bl):
    """(ah·2⁶⁴+al) × (bh·2⁶⁴+bl) mod 2¹²⁸ on hi/lo uint64 pairs."""
    # 64×64→128 low-product carry via 32-bit limbs.
    a0 = al & _LOW32
    a1 = al >> _U64(32)
    b0 = bl & _LOW32
    b1 = bl >> _U64(32)
    t = a1 * b0 + (a0 * b0 >> _U64(32))
    carry = a1 * b1 + (t >> _U64(32)) + ((a0 * b1 + (t & _LOW32)) >> _U64(32))
    return ah * bl + al * bh + carry, al * bl


def _add128(ah, al, bh, bl):
    lo = al + bl
    return ah + bh + (lo < al).astype(_U64), lo


def raw_outputs(seeds: np.ndarray, k: int) -> np.ndarray:
    """First ``k`` raw 64-bit outputs of each seed's PCG64 stream.

    ``seeds`` is a ``uint64`` array; the result has shape
    ``(k, *seeds.shape)`` and ``out[j]`` is bit-identical, per element,
    to the ``j``-th ``next_uint64`` of ``np.random.PCG64(int(s))`` —
    the words ``Generator`` feeds every distribution from — computed
    without constructing any BitGenerator objects.
    """
    seeds = np.ascontiguousarray(seeds, dtype=_U64)
    out = np.empty((k,) + seeds.shape, dtype=_U64)
    if out.size == 0:
        return out
    w0, w1, w2, w3 = _seedseq_state(seeds)
    # pcg64_srandom: inc = (initseq << 1) | 1; state = inc + initstate,
    # then one LCG step.  initstate = w0:w1, initseq = w2:w3.
    inc_hi = (w2 << _U64(1)) | (w3 >> _U64(63))
    inc_lo = (w3 << _U64(1)) | _U64(1)

    def step(hi, lo):
        hi, lo = _mul128(hi, lo, _PCG_MULT_HI, _PCG_MULT_LO)
        return _add128(hi, lo, inc_hi, inc_lo)

    st_hi, st_lo = step(*_add128(inc_hi, inc_lo, w0, w1))
    for j in range(k):
        # next_uint64: step, then XSL-RR output of the new state.
        st_hi, st_lo = step(st_hi, st_lo)
        rot = st_hi >> _U64(58)
        xored = st_hi ^ st_lo
        out[j] = (xored >> rot) | (xored << ((_U64(64) - rot) & _U64(63)))
    return out


def to_double(words: np.ndarray) -> np.ndarray:
    """``Generator.random()``'s 53-bit mantissa scaling of raw outputs."""
    return (words >> _U64(11)) * _DOUBLE_SCALE


def first_uniforms(seeds: np.ndarray) -> np.ndarray:
    """First ``Generator.random()`` double of each seed's PCG64 stream.

    ``seeds`` is a ``uint64`` array; the result is bit-identical to
    ``np.random.Generator(np.random.PCG64(int(s))).random()`` per
    element, computed without constructing any Generator objects.
    """
    return to_double(raw_outputs(seeds, 1)[0])


def bounded_int32(words: np.ndarray, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """``Generator.integers(lo, hi + 1, dtype=int32)`` from each stream's next word.

    numpy draws a 32-bit bounded integer by Lemire's multiply-shift on
    the *low* half of the next 64-bit output (``pcg64_next32`` serves
    it first).  Returns ``(values, accepted)``: where ``accepted`` is
    false Lemire rejected the first try (probability ``< (hi - lo + 1)
    / 2**32``) and numpy goes on to further outputs — those rows'
    values are not the draw.  ``lo == hi`` consumes no output.
    """
    span = hi - lo
    if span == 0:
        return np.full(words.shape, lo, dtype=np.int32), np.ones(words.shape, dtype=bool)
    m = (words & _LOW32) * _U64(span + 1)
    accepted = (m & _LOW32) >= _U64((0xFFFFFFFF - span) % (span + 1))
    return (lo + (m >> _U64(32))).astype(np.int32), accepted


#: ``random_geometric`` searches for ``p`` at or above this literal and
#: inverts a ziggurat exponential (not restated here) below it.
GEOMETRIC_SEARCH_MIN_P = 0.333333333333333333333333


def geometric_search(words: np.ndarray, p: float) -> tuple[np.ndarray, np.ndarray]:
    """``Generator.geometric(p)`` for ``p >= 1/3`` from each stream's next word.

    ``random_geometric_search`` takes one double ``U`` and returns
    ``X = 1 + #{k >= 1 : U > p + pq + ... + pq**(k-1)}``, accumulating
    the partial sums in doubles exactly as done here.  Returns
    ``(values, finished)`` with ``int64`` values; ``finished`` is false
    only where the sums stop growing below ``U`` (numpy's own loop
    would not end there either).
    """
    u = to_double(words)
    top = u.max(initial=0.0)
    total = prod = p
    q = 1.0 - p
    sums = [total]
    while total < top:
        prod *= q
        if total + prod == total:
            break
        total += prod
        sums.append(total)
    return 1 + np.searchsorted(sums, u, side="left"), u <= total
