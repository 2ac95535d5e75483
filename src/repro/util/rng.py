"""Deterministic, hierarchical random-number streams.

The simulator needs randomness that is independent of *execution order*:
whether persons are processed sequentially, by chare, or across simulated
PEs, person ``p`` on day ``d`` must see the same draws.  We achieve this by
deriving a child seed from ``(root_seed, *keys)`` with a stable integer
hash and constructing a fresh :class:`numpy.random.Generator` per keyed
stream.

Stream construction is **not** cheap: ``RngFactory.stream`` measures
~14.5 µs per call (BLAKE2b + ``SeedSequence`` + ``PCG64`` +
``Generator``; 2-CPU reference box, ``benchmarks/ladder``), which is
only worth paying when many draws follow from the one stream
(population synthesis blocks, partitioner tie-breaking, baseline
replications).  Anything that takes one or two draws per entity — a
coin flip per (day, person), a dwell time per transition — must use the
batched primitives instead: :func:`keyed_raw` returns every stream's
seed and first raw outputs, bit-identical to what the per-stream
``Generator`` would draw (:func:`keyed_seeds` is the seeds alone,
:func:`keyed_uniforms` the one-uniform case).  They run one fused C
pass over 8 (AVX-512F), 4 (AVX2) or 1 key at a time, ~0.09 / 0.13 /
0.3 µs per key (:func:`repro.core.ckernel.keyed_raw`), and fall back
to the definition — :func:`derive_seeds` (hashlib, ~0.7 µs per key)
then :mod:`repro.util.pcg`'s numpy replay — where
:func:`repro.core.ckernel.available` is False.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

import numpy as np

from repro import observe
from repro.util.pcg import raw_outputs, to_double

__all__ = [
    "derive_seed",
    "derive_seeds",
    "spawn_generator",
    "keyed_raw",
    "keyed_seeds",
    "keyed_uniforms",
    "RngFactory",
]

_MASK64 = (1 << 64) - 1


def _check_root(root_seed) -> int:
    """``root_seed`` as an int, or ValueError unless ``0 <= root_seed < 2**64``."""
    root = int(root_seed)
    if not 0 <= root <= _MASK64:
        raise ValueError(f"root seed must be in [0, 2**64), got {root}")
    return root


def derive_seed(root_seed: int, *keys: int) -> int:
    """Derive a 64-bit child seed from a root seed and integer keys.

    Uses BLAKE2b over the little-endian packed key tuple, which gives
    high-quality avalanche behaviour (SplitMix-style multiplicative
    mixing showed detectable correlations between (p, d) and (p+1, d-1)
    streams in early testing).

    Parameters
    ----------
    root_seed:
        The experiment-level seed.
    keys:
        Any number of non-negative integers identifying the stream,
        e.g. ``(day, person_id)``.
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(int(root_seed).to_bytes(8, "little", signed=False))
    for k in keys:
        h.update(int(k).to_bytes(8, "little", signed=True))
    return int.from_bytes(h.digest(), "little") & _MASK64


def derive_seeds(root_seed: int, keys: np.ndarray) -> np.ndarray:
    """Batched :func:`derive_seed`: one child seed per row of ``keys``.

    ``keys`` is an ``(n, k)`` integer array; row ``j`` yields exactly
    ``derive_seed(root_seed, *keys[j])``.  The BLAKE2b digests are
    computed over one contiguous little-endian buffer (hashlib has no
    batch API, but packing the whole key matrix in a single ``tobytes``
    keeps the per-row Python work to one hash call and one slice).
    """
    keys = np.ascontiguousarray(np.atleast_2d(keys), dtype="<i8")
    n, k = keys.shape
    if n == 0:
        return np.empty(0, dtype=np.uint64)
    prefix = int(root_seed).to_bytes(8, "little", signed=False)
    buf = keys.tobytes()
    row = 8 * k
    blake2b = hashlib.blake2b
    from_bytes = int.from_bytes
    return np.fromiter(
        (
            from_bytes(blake2b(prefix + buf[o : o + row], digest_size=8).digest(), "little")
            for o in range(0, n * row, row)
        ),
        dtype=np.uint64,
        count=n,
    )


def spawn_generator(root_seed: int, *keys: int) -> np.random.Generator:
    """Construct a :class:`numpy.random.Generator` for a keyed stream."""
    return np.random.Generator(np.random.PCG64(derive_seed(root_seed, *keys)))


def keyed_raw(root_seed: int, n_out: int, *key_cols) -> tuple[np.ndarray, np.ndarray]:
    """Every key tuple's stream seed and first ``n_out`` raw outputs.

    ``key_cols`` are integer arrays (or scalars, broadcast against the
    array columns); tuple ``j`` is ``(key_cols[0][j], key_cols[1][j],
    ...)``.  Returns ``(seeds, words)``: ``seeds[j]`` is
    ``derive_seed(root_seed, *tuple_j)`` — the seed ``spawn_generator``
    builds that tuple's stream from — and ``words[i][j]`` its ``i``-th
    raw 64-bit output (:func:`repro.util.pcg.raw_outputs`), ``uint64``
    in the broadcast shape and ``(n_out, *shape)``.

    One C pass over 1, 4 or 8 keys at a time where
    :func:`repro.core.ckernel.available`; otherwise :func:`derive_seeds`
    and ``raw_outputs``, the definition the C pass is pinned to.  Each
    call is one ``rng.keyed`` span (``keys=``, ``n_out=``, ``isa=``: the
    lane level, or ``hashlib``) and adds its rows to the ``rng.keys``
    counter.
    """
    from repro.core import ckernel  # repro.util must not import repro.core at load

    root = _check_root(root_seed)
    try:  # integers and arrays: no np.shape / np.asarray per column
        shapes = {c.shape for c in key_cols if not isinstance(c, int)} - {()}
    except AttributeError:  # a list or a float among them
        shapes = {np.shape(c) for c in key_cols} - {()}
    shape = shapes.pop() if len(shapes) == 1 else np.broadcast_shapes(*shapes)
    keys = np.empty(shape + (len(key_cols),), dtype=np.int64)
    for j, c in enumerate(key_cols):
        keys[..., j] = c  # converts as np.asarray(c, dtype=np.int64) does
    keys = keys.reshape(-1, len(key_cols))
    c_pass = ckernel.available()
    isa = ckernel.KEYED_ISAS[ckernel.keyed_isa()] if c_pass else "hashlib"
    with observe.span("rng.keyed", keys=keys.shape[0], n_out=n_out, isa=isa):
        if c_pass:
            seeds, words = ckernel.keyed_raw(root, keys, n_out)
        else:
            seeds = derive_seeds(root, keys)
            words = raw_outputs(seeds, n_out)
    observe.counter("rng.keys", keys.shape[0])
    return seeds.reshape(shape), words.reshape((n_out,) + shape)


def keyed_seeds(root_seed: int, *key_cols) -> np.ndarray:
    """The derived stream seed of every key tuple, fully batched.

    Element ``j`` is ``derive_seed(root_seed, *tuple_j)`` as ``uint64``
    in the broadcast shape of ``key_cols`` (see :func:`keyed_raw`).
    """
    return keyed_raw(root_seed, 0, *key_cols)[0]


def keyed_uniforms(root_seed: int, *key_cols) -> np.ndarray:
    """One U(0,1) draw per key tuple, fully batched.

    Element ``j`` is bit-identical to
    ``spawn_generator(root_seed, *tuple_j).random()`` — the first raw
    output of the tuple's stream (:func:`keyed_raw`) through
    ``Generator.random()``'s scaling, without one Generator
    construction per tuple, which is what makes per-entity keyed coin
    flips affordable on the exposure hot path.
    """
    return to_double(keyed_raw(root_seed, 1, *key_cols)[1][0])


class RngFactory:
    """Factory producing keyed generators below a fixed root seed.

    A factory is shared by a whole simulation run; components ask for
    ``factory.stream(*keys)`` with their own stable key prefix.  Key
    prefixes in use across the codebase (kept unique by convention):

    ==========  =====================================================
    prefix      component
    ==========  =====================================================
    ``0``       population synthesis
    ``1``       per-(day, person) health/behaviour draws
    ``2``       per-(day, location) transmission draws
    ``3``       intervention triggers
    ``4``       partitioner tie-breaking
    ``5``       machine/network jitter
    ``6``       baseline simulators (FastSIR, Dijkstra replications)
    ``7``       scenario model components (:mod:`repro.scenarios`)
    ==========  =====================================================
    """

    #: Key-prefix constants (see class docstring).
    SYNTHPOP = 0
    PERSON = 1
    LOCATION = 2
    INTERVENTION = 3
    PARTITION = 4
    MACHINE = 5
    BASELINE = 6
    SCENARIO = 7

    def __init__(self, root_seed: int = 0):
        if not isinstance(root_seed, (int, np.integer)):
            raise TypeError(f"root_seed must be an integer, got {type(root_seed).__name__}")
        self.root_seed = _check_root(root_seed)

    def seed(self, *keys: int) -> int:
        """Derived child seed for ``keys``."""
        return derive_seed(self.root_seed, *keys)

    def stream(self, *keys: int) -> np.random.Generator:
        """Generator for the stream identified by ``keys``."""
        return spawn_generator(self.root_seed, *keys)

    def person_stream(self, day: int, person_id: int) -> np.random.Generator:
        """Per-(day, person) stream used for health/behaviour draws."""
        return self.stream(self.PERSON, day, person_id)

    def location_stream(self, day: int, location_id: int) -> np.random.Generator:
        """Per-(day, location) stream used for transmission draws."""
        return self.stream(self.LOCATION, day, location_id)

    def keyed_raw(self, n_out: int, *key_cols) -> tuple[np.ndarray, np.ndarray]:
        """Batched seeds and first ``n_out`` raw outputs (:func:`keyed_raw`)
        of the streams ``self.stream(*tuple_j)`` would return."""
        return keyed_raw(self.root_seed, n_out, *key_cols)

    def keyed_seeds(self, *key_cols) -> np.ndarray:
        """Batched :meth:`seed`: one derived seed per key tuple.

        See :func:`keyed_seeds`; element ``j`` seeds exactly the
        Generator ``self.stream(*tuple_j)`` would return.
        """
        return keyed_seeds(self.root_seed, *key_cols)

    def keyed_uniforms(self, *key_cols) -> np.ndarray:
        """Batched keyed draws below this factory's root seed.

        See :func:`keyed_uniforms`; element ``j`` equals
        ``self.stream(*tuple_j).random()`` exactly.
        """
        return keyed_uniforms(self.root_seed, *key_cols)

    def uniforms_for(
        self, prefix: int, day: int, ids: Iterable[int], salt: int = 0
    ) -> np.ndarray:
        """Vector of one U(0,1) draw per id, order-independent.

        Exactly ``stream(prefix, day, i, salt).random()`` for each id,
        but delegated to the batched :func:`keyed_uniforms` primitive:
        used where the sequential reference and the chare-parallel
        execution must agree on per-entity coin flips while visiting
        entities in different orders.  Distinct consumers sharing a
        prefix must use distinct ``salt`` values so their decisions
        stay independent.
        """
        if isinstance(ids, np.ndarray) and ids.dtype.kind in "iu":
            ids = ids.astype(np.int64, copy=False)
        else:
            ids = np.fromiter((int(i) for i in ids), dtype=np.int64)
        return keyed_uniforms(self.root_seed, prefix, day, ids, salt)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngFactory(root_seed={self.root_seed})"
