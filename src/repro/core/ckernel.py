"""C hot paths, built on demand into one library loaded via ``ctypes``.

Three loops live here, each the C form of a numpy (or hashlib)
definition that stays in the repo and that it matches bit for bit:

* **exposure accumulation** (:func:`accumulate_exposures`) — the pair
  stage of the ``"compiled"`` exposure kernel;
* **keyed draws** (:func:`keyed_raw`) — BLAKE2b seed derivation,
  ``SeedSequence`` mixing and the first PCG64 outputs of every keyed
  stream in one pass per key, behind :mod:`repro.util.rng`'s batched
  primitives under *every* kernel;
* **the block index** (:func:`block_index`) — a stable counting sort of
  the visit rows by ``(location, sublocation)`` block, equal to the
  numpy packed-key sort in ``PersonLocationGraph.block_visit_index()``.

Exposure accumulation
---------------------
The ``"compiled"`` exposure kernel replaces the pair-materialising part
of the ``"flat"`` kernel — segmented S×I enumeration, per-pair hazard
evaluation, per-(location, person) hazard/bincount reduction and the
earliest-minute ``minimum.at`` — with one streaming C loop that never
allocates a per-pair array.  Everything around it (the candidate
walk and the block segmentation it hands on, the accumulator slots,
the infection draw) stays in numpy, which is what keeps the result
**bit-identical** to the other kernels:

* integer overlap arithmetic and IEEE-754 double multiply/add are
  exactly specified, and the C loop performs them in precisely the
  order ``np.bincount`` accumulates the sorted pair array (ascending
  susceptible row, block order within a row);
* every transcendental stays in numpy — the per-pair
  ``-log1p(-rate)`` factor only depends on the (infectious state,
  susceptible state) pair, so it is precomputed as an
  ``n_states × n_states`` table with the *same*
  :meth:`~repro.core.transmission.TransmissionModel.hazard` call the
  flat kernel makes, and ``probability``/``keyed_uniforms`` run on the
  reduced per-person arrays exactly as before.

Keyed draws
-----------
A keyed stream is ``Generator(PCG64(derive_seed(root, *key)))``;
:func:`repro.util.rng.derive_seeds` (hashlib) and
:mod:`repro.util.pcg` (numpy) are its batched definition.  The C loop
restates the same three steps per key — BLAKE2b with ``digest_size=8``
and no key over ``root_le8 ‖ key_le8…`` (one compression up to 15 key
words, a second beyond), ``SeedSequence(seed).generate_state(4,
uint64)``, PCG64 ``srandom`` and the first ``n_out`` XSL-RR outputs —
in integer arithmetic, which is exactly specified, so equality with
the definition is the whole contract (``tests/util/test_keyed_c.py``).

Build and fallback
------------------
The shared library is compiled once per source hash with the system C
compiler (``$CC``, else ``cc``/``gcc``/``clang``) into a cache
directory and memoised per process; forked SMP workers inherit the
mapping.  ``-ffp-contract=off`` keeps the compiler from fusing the
multiply-add into an FMA that would change the bits.

No toolchain (or ``REPRO_NO_CKERNEL=1``) simply means
:func:`available` is ``False``: callers fall back to the numpy /
hashlib definitions and tests skip cleanly — nothing in the repo
*requires* a compiler.  The one switch governs all three paths because
they are one library: a machine has all three C loops or none, and
since each path is bit-identical to its fallback, the switch changes
speed, never an epidemic.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import time
from pathlib import Path

import numpy as np

__all__ = ["available", "build_error", "accumulate_exposures", "keyed_raw", "block_index",
           "cache_dir"]

C_SOURCE = r"""
#include <stdint.h>

/* Accumulate S x I exposure hazards, streaming, without materialising
 * pairs.  Rows are the day's candidate visits (every one susceptible
 * or infectious, in a (location, sublocation) block that holds both
 * today).  Susceptible rows are walked
 * in ascending row order and their infectious partners in sorted
 * (location, sublocation)-block order -- the exact accumulation
 * sequence of the flat kernel's sort-by-susceptible + bincount, so
 * the double sums match bit for bit.
 *
 * Returns the number of interacting pairs (positive overlap). */
int64_t repro_accumulate_exposures(
    int64_t n_rows,
    const int64_t *vstart,        /* per candidate row: visit start   */
    const int64_t *vend,          /* per candidate row: visit end     */
    const int64_t *state,         /* per candidate row: health state  */
    const uint8_t *sus,           /* per candidate row: susceptible?  */
    const int64_t *slot,          /* per candidate row: (loc, person)
                                     accumulator index                */
    const int64_t *row_block,     /* per candidate row: (loc, subloc)
                                     block id                         */
    const int64_t *inf_rows,      /* infectious candidate rows, in
                                     sorted-position order            */
    const int64_t *inf_off,       /* per block: [start, end) into
                                     inf_rows (n_blocks + 1 entries)  */
    const double *haz_table,      /* [inf_state * n_states + sus_state]
                                     = hazard per overlap minute      */
    int64_t n_states,
    double *total_hazard,         /* out, per slot: summed hazard     */
    int64_t *first_minute,        /* out, per slot: min overlap end
                                     (init to INT64_MAX)              */
    int64_t *pair_count)          /* out, per slot: interacting pairs */
{
    int64_t pairs = 0;
    for (int64_t r = 0; r < n_rows; ++r) {
        if (!sus[r]) continue;
        const int64_t b = row_block[r];
        const int64_t k0 = inf_off[b], k1 = inf_off[b + 1];
        if (k0 == k1) continue;
        const int64_t s0 = vstart[r], e0 = vend[r];
        const int64_t sl = slot[r];
        const double *tab = haz_table + state[r];  /* column of sus state */
        double acc = total_hazard[sl];
        int64_t fmin = first_minute[sl];
        int64_t hits = 0;
        for (int64_t k = k0; k < k1; ++k) {
            const int64_t ri = inf_rows[k];
            if (ri == r) continue;                 /* no self pairing */
            const int64_t os = s0 > vstart[ri] ? s0 : vstart[ri];
            const int64_t oe = e0 < vend[ri] ? e0 : vend[ri];
            if (oe <= os) continue;
            acc += (double)(oe - os) * tab[state[ri] * n_states];
            if (oe < fmin) fmin = oe;
            ++hits;
        }
        total_hazard[sl] = acc;
        first_minute[sl] = fmin;
        pair_count[sl] += hits;
        pairs += hits;
    }
    return pairs;
}

#define REPRO_ID(col, width, i) /* an id column in its own width, 4 or 8 */ \
    ((width) == 8 ? ((const int64_t *)(col))[i] : ((const int32_t *)(col))[i])

/* order = argsort(sub_off[loc] + sub, kind="stable") and its CSR bounds
 * ptr (zeroed on entry) by a counting sort.  Pass 1 checks and counts;
 * a bad row returns 1 (location) / 2 (sublocation) before any scatter.
 * Pass 2 scatters ascending rows through ptr[b] as the cursor, which
 * shifts ptr down one block; the last loop shifts it back. */
int64_t repro_block_index(
    int64_t n, const void *loc, int64_t loc_width, const void *sub, int64_t sub_width,
    const int64_t *n_sub, const int64_t *sub_off, int64_t n_locations, int64_t n_blocks,
    int64_t *ptr, int64_t *order)
{
    for (int64_t i = 0; i < n; ++i) {
        const int64_t l = REPRO_ID(loc, loc_width, i);
        if (l < 0 || l >= n_locations) return 1;
        const int64_t s = REPRO_ID(sub, sub_width, i), b = sub_off[l] + s;
        if (s < 0 || s >= n_sub[l] || b < 0 || b >= n_blocks) return 2;
        ++ptr[b + 1];
    }
    for (int64_t b = 0; b < n_blocks; ++b) ptr[b + 1] += ptr[b];
    for (int64_t i = 0; i < n; ++i)
        order[ptr[sub_off[REPRO_ID(loc, loc_width, i)] + REPRO_ID(sub, sub_width, i)]++] = i;
    for (int64_t b = n_blocks; b > 0; --b) ptr[b] = ptr[b - 1];
    ptr[0] = 0;
    return 0;
}

/* ---- keyed draws ---------------------------------------------------- */

static const uint64_t B2B_IV[8] = {
    0x6a09e667f3bcc908ULL, 0xbb67ae8584caa73bULL,
    0x3c6ef372fe94f82bULL, 0xa54ff53a5f1d36f1ULL,
    0x510e527fade682d1ULL, 0x9b05688c2b3e6c1fULL,
    0x1f83d9abfb41bd6bULL, 0x5be0cd19137e2179ULL,
};

static const uint8_t B2B_SIGMA[12][16] = {
    { 0,  1,  2,  3,  4,  5,  6,  7,  8,  9, 10, 11, 12, 13, 14, 15},
    {14, 10,  4,  8,  9, 15, 13,  6,  1, 12,  0,  2, 11,  7,  5,  3},
    {11,  8, 12,  0,  5,  2, 15, 13, 10, 14,  3,  6,  7,  1,  9,  4},
    { 7,  9,  3,  1, 13, 12, 11, 14,  2,  6,  5, 10,  4,  0, 15,  8},
    { 9,  0,  5,  7,  2,  4, 10, 15, 14,  1, 11, 12,  6,  8,  3, 13},
    { 2, 12,  6, 10,  0, 11,  8,  3,  4, 13,  7,  5, 15, 14,  1,  9},
    {12,  5,  1, 15, 14, 13,  4, 10,  0,  7,  6,  3,  9,  2,  8, 11},
    {13, 11,  7, 14, 12,  1,  3,  9,  5,  0, 15,  4,  8,  6,  2, 10},
    { 6, 15, 14,  9, 11,  3,  0,  8, 12,  2, 13,  7,  1,  4, 10,  5},
    {10,  2,  8,  4,  7,  6,  1,  5, 15, 11,  9, 14,  3, 12, 13,  0},
    { 0,  1,  2,  3,  4,  5,  6,  7,  8,  9, 10, 11, 12, 13, 14, 15},
    {14, 10,  4,  8,  9, 15, 13,  6,  1, 12,  0,  2, 11,  7,  5,  3},
};

#define ROTR64(x, n) (((x) >> (n)) | ((x) << (64 - (n))))
#define B2B_G(a, b, c, d, x, y) do {                          \
        v[a] += v[b] + (x); v[d] = ROTR64(v[d] ^ v[a], 32);   \
        v[c] += v[d];       v[b] = ROTR64(v[b] ^ v[c], 24);   \
        v[a] += v[b] + (y); v[d] = ROTR64(v[d] ^ v[a], 16);   \
        v[c] += v[d];       v[b] = ROTR64(v[b] ^ v[c], 63);   \
    } while (0)
#define B2B_ROUND(r) do {                                     \
        const uint8_t *s = B2B_SIGMA[r];                      \
        B2B_G(0, 4,  8, 12, m[s[ 0]], m[s[ 1]]);              \
        B2B_G(1, 5,  9, 13, m[s[ 2]], m[s[ 3]]);              \
        B2B_G(2, 6, 10, 14, m[s[ 4]], m[s[ 5]]);              \
        B2B_G(3, 7, 11, 15, m[s[ 6]], m[s[ 7]]);              \
        B2B_G(0, 5, 10, 15, m[s[ 8]], m[s[ 9]]);              \
        B2B_G(1, 6, 11, 12, m[s[10]], m[s[11]]);              \
        B2B_G(2, 7,  8, 13, m[s[12]], m[s[13]]);              \
        B2B_G(3, 4,  9, 14, m[s[14]], m[s[15]]);              \
    } while (0)

/* One BLAKE2b compression (RFC 7693 F); t = bytes hashed so far,
 * always < 2**64 here, so the high counter word stays zero. */
static void b2b_compress(uint64_t h[8], const uint64_t m[16], uint64_t t, int last)
{
    uint64_t v[16];
    for (int i = 0; i < 8; ++i) { v[i] = h[i]; v[i + 8] = B2B_IV[i]; }
    v[12] ^= t;
    if (last) v[14] = ~v[14];
    B2B_ROUND(0); B2B_ROUND(1); B2B_ROUND(2);  B2B_ROUND(3);
    B2B_ROUND(4); B2B_ROUND(5); B2B_ROUND(6);  B2B_ROUND(7);
    B2B_ROUND(8); B2B_ROUND(9); B2B_ROUND(10); B2B_ROUND(11);
    for (int i = 0; i < 8; ++i) h[i] ^= v[i] ^ v[i + 8];
}

/* blake2b(root_le8 + key_le8..., digest_size=8), read little-endian:
 * util.rng.derive_seed.  Message words are the root then the keys, so
 * block b holds words 16b .. 16b+15, zero-padded after the last. */
static uint64_t keyed_seed(uint64_t root, const int64_t *key, int64_t k)
{
    uint64_t h[8], m[16];
    for (int i = 0; i < 8; ++i) h[i] = B2B_IV[i];
    h[0] ^= 0x01010008ULL;  /* depth 1, fanout 1, no key, 8-byte digest */
    const int64_t n_words = k + 1;
    for (int64_t w = 0;;) {
        const int64_t take = n_words - w < 16 ? n_words - w : 16;
        for (int64_t i = 0; i < 16; ++i) {
            const int64_t j = w + i;
            m[i] = i >= take ? 0 : j == 0 ? root : (uint64_t)key[j - 1];
        }
        w += take;
        /* the last block is compressed with the final flag even when
         * full: BLAKE2 never finalises an empty block */
        b2b_compress(h, m, (uint64_t)w * 8, w == n_words);
        if (w == n_words) return h[0];
    }
}

/* numpy SeedSequence's hashmix / mix (bit_generator.pyx). */
static inline uint32_t ss_hashmix(uint32_t value, uint32_t *hash_const, uint32_t mult)
{
    value ^= *hash_const;
    *hash_const *= mult;
    value *= *hash_const;
    return value ^ (value >> 16);
}

static inline uint32_t ss_mix(uint32_t x, uint32_t y)
{
    const uint32_t r = 0xca01f9ddU * x - 0x4973f715U * y;
    return r ^ (r >> 16);
}

/* PCG64(seed): SeedSequence(seed).generate_state(4, uint64), srandom,
 * then n_out XSL-RR outputs written stride words apart (util.pcg). */
static void pcg64_first(uint64_t seed, int64_t n_out, uint64_t *out, int64_t stride)
{
    uint32_t pool[4] = {(uint32_t)seed, (uint32_t)(seed >> 32), 0, 0};
    uint32_t hc = 0x43b0d7e5U;
    for (int i = 0; i < 4; ++i) pool[i] = ss_hashmix(pool[i], &hc, 0x931e8875U);
    for (int src = 0; src < 4; ++src)
        for (int dst = 0; dst < 4; ++dst)
            if (src != dst)
                pool[dst] = ss_mix(pool[dst], ss_hashmix(pool[src], &hc, 0x931e8875U));
    uint32_t st[8];
    hc = 0x8b51f9ddU;
    for (int i = 0; i < 8; ++i) st[i] = ss_hashmix(pool[i & 3], &hc, 0x58f38dedU);
    /* uint32 pairs combine low word first; initstate = w0:w1,
     * initseq = w2:w3 (high:low) */
    const unsigned __int128 mult =
        ((unsigned __int128)2549297995355413924ULL << 64) | 4865540595714422341ULL;
    const unsigned __int128 initstate =
        ((unsigned __int128)(st[0] | (uint64_t)st[1] << 32) << 64)
        | (st[2] | (uint64_t)st[3] << 32);
    const unsigned __int128 initseq =
        ((unsigned __int128)(st[4] | (uint64_t)st[5] << 32) << 64)
        | (st[6] | (uint64_t)st[7] << 32);
    const unsigned __int128 inc = (initseq << 1) | 1;
    unsigned __int128 state = (inc + initstate) * mult + inc;
    for (int64_t j = 0; j < n_out; ++j) {
        state = state * mult + inc;
        const uint64_t hi = (uint64_t)(state >> 64);
        const uint64_t x = hi ^ (uint64_t)state;
        const unsigned rot = (unsigned)(hi >> 58);
        out[j * stride] = (x >> rot) | (x << ((64 - rot) & 63));
    }
}

/* The derived seed of every key row and its stream's first n_out raw
 * outputs.  keys is (n, k_keys) row-major; out is (n_out, n). */
void repro_keyed_raw(
    int64_t n, int64_t k_keys, uint64_t root, const int64_t *keys,
    int64_t n_out, uint64_t *seeds, uint64_t *out)
{
    for (int64_t r = 0; r < n; ++r) {
        seeds[r] = keyed_seed(root, keys + r * k_keys, k_keys);
        if (n_out > 0) pcg64_first(seeds[r], n_out, out + r, n);
    }
}
"""

_I64 = np.ctypeslib.ndpointer(dtype=np.int64, flags="C_CONTIGUOUS")
_U8 = np.ctypeslib.ndpointer(dtype=np.uint8, flags="C_CONTIGUOUS")
_F64 = np.ctypeslib.ndpointer(dtype=np.float64, flags="C_CONTIGUOUS")
_U64 = np.ctypeslib.ndpointer(dtype=np.uint64, flags="C_CONTIGUOUS")

#: memoised per process: None = not tried yet, False = unavailable
_lib: ctypes.CDLL | None | bool = None
_build_error: str | None = None


def cache_dir() -> Path:
    """Directory the compiled library is cached in (override with
    ``REPRO_CKERNEL_CACHE``)."""
    env = os.environ.get("REPRO_CKERNEL_CACHE")
    if env:
        return Path(env)
    return Path(tempfile.gettempdir()) / f"repro-ckernel-{os.getuid()}"


def _find_compiler() -> str | None:
    cc = os.environ.get("CC")
    if cc and shutil.which(cc):
        return cc
    for candidate in ("cc", "gcc", "clang"):
        if shutil.which(candidate):
            return candidate
    return None


#: a lock file untouched for this long belongs to a dead builder
_LOCK_STALE_SECONDS = 60.0
#: give up waiting on someone else's build after this long
_LOCK_WAIT_SECONDS = 120.0


def _acquire_build_lock(lock: Path, out: Path) -> bool:
    """Serialise concurrent builders on an ``O_CREAT|O_EXCL`` lock file.

    Returns True when this process holds the lock (and must build),
    False when the library appeared while waiting.  A lock whose mtime
    stops advancing for :data:`_LOCK_STALE_SECONDS` is stolen — the
    holder died mid-compile (e.g. a killed test worker) and must not
    wedge every later process.
    """
    deadline = time.monotonic() + _LOCK_WAIT_SECONDS
    while True:
        if out.exists():
            return False
        try:
            fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            try:
                age = time.time() - lock.stat().st_mtime
            except OSError:
                continue  # holder just released; retry immediately
            if age > _LOCK_STALE_SECONDS:
                try:
                    lock.unlink()
                except OSError:
                    pass
                continue
            if time.monotonic() > deadline:
                raise RuntimeError(
                    f"timed out waiting for a concurrent C kernel build ({lock})"
                )
            time.sleep(0.05)
            continue
        try:
            os.write(fd, str(os.getpid()).encode())
        finally:
            os.close(fd)
        return True


def _compile() -> Path:
    """Build (or reuse) the shared library; raises on any failure.

    Concurrent-safe at both levels: a build lock keeps N fresh
    processes from all running the compiler, and the final atomic
    ``os.replace`` means even an unlocked straggler can only ever
    install a complete library.
    """
    tag = hashlib.sha256(C_SOURCE.encode()).hexdigest()[:16]
    out = cache_dir() / f"exposure-{tag}.so"
    if out.exists():
        return out
    cc = _find_compiler()
    if cc is None:
        raise RuntimeError("no C compiler found (set $CC or install cc/gcc/clang)")
    out.parent.mkdir(parents=True, exist_ok=True)
    lock = out.with_suffix(".lock")
    if not _acquire_build_lock(lock, out):
        return out
    src = out.with_suffix(f".{os.getpid()}.c")
    tmp = out.with_suffix(f".{os.getpid()}.so.tmp")
    try:
        if out.exists():  # finished while we raced for the lock
            return out
        src.write_text(C_SOURCE)
        # -ffp-contract=off: an FMA would change the multiply-add bits
        # vs numpy; bit-exactness across kernels is the contract.
        subprocess.run(
            [cc, "-O2", "-shared", "-fPIC", "-ffp-contract=off",
             "-fno-fast-math", str(src), "-o", str(tmp)],
            check=True, capture_output=True, text=True,
        )
        os.replace(tmp, out)  # atomic: a partial .so can never be seen
    except subprocess.CalledProcessError as exc:
        raise RuntimeError(f"C kernel build failed:\n{exc.stderr}") from exc
    finally:
        for leftover in (src, tmp):
            try:
                leftover.unlink()
            except OSError:
                pass
        try:
            lock.unlink()
        except OSError:
            pass
    return out


def _load() -> ctypes.CDLL | bool:
    global _lib, _build_error
    if _lib is not None:
        return _lib
    if os.environ.get("REPRO_NO_CKERNEL", "") not in ("", "0"):
        _build_error = "disabled by REPRO_NO_CKERNEL"
        _lib = False
        return _lib
    try:
        lib = ctypes.CDLL(str(_compile()))
        fn = lib.repro_accumulate_exposures
        fn.restype = ctypes.c_int64
        fn.argtypes = [
            ctypes.c_int64, _I64, _I64, _I64, _U8, _I64, _I64, _I64, _I64,
            _F64, ctypes.c_int64, _F64, _I64, _I64,
        ]
        fn = lib.repro_keyed_raw
        fn.restype = None
        fn.argtypes = [
            ctypes.c_int64, ctypes.c_int64, ctypes.c_uint64, _I64,
            ctypes.c_int64, _U64, _U64,
        ]
        fn = lib.repro_block_index
        fn.restype = ctypes.c_int64
        fn.argtypes = [ctypes.c_int64, *[ctypes.c_void_p, ctypes.c_int64] * 2, _I64, _I64,
                       ctypes.c_int64, ctypes.c_int64, _I64, _I64]
        _lib = lib
    except (RuntimeError, OSError) as exc:
        _build_error = str(exc)
        _lib = False
    return _lib


def available() -> bool:
    """True iff the compiled kernel can be (or has been) built and loaded."""
    return _load() is not False


def build_error() -> str | None:
    """Why :func:`available` is False (None while available/untried)."""
    available()
    return _build_error


def accumulate_exposures(
    vstart: np.ndarray,
    vend: np.ndarray,
    state: np.ndarray,
    sus: np.ndarray,
    slot: np.ndarray,
    row_block: np.ndarray,
    inf_rows: np.ndarray,
    inf_off: np.ndarray,
    haz_table: np.ndarray,
    n_states: int,
    total_hazard: np.ndarray,
    first_minute: np.ndarray,
    pair_count: np.ndarray,
) -> int:
    """Run the C accumulation loop; returns the interacting-pair count.

    The per-row arguments are columns of the day's candidate visits —
    susceptible or infectious rows of a ``(location, sublocation)``
    block that holds both today.  All array arguments must be
    C-contiguous with the dtypes of the C signature; ``total_hazard`` /
    ``first_minute`` / ``pair_count`` are written in place (callers
    initialise them).
    """
    return int(
        _loaded().repro_accumulate_exposures(
            vstart.size, vstart, vend, state, sus, slot, row_block,
            inf_rows, inf_off, haz_table, n_states,
            total_hazard, first_minute, pair_count,
        )
    )


def keyed_raw(root_seed: int, keys: np.ndarray, n_out: int) -> tuple[np.ndarray, np.ndarray]:
    """Derived seed and first ``n_out`` raw PCG64 outputs of every key row.

    ``keys`` is a C-contiguous ``(n, k)`` ``int64`` matrix and
    ``root_seed`` a checked ``0 <= root_seed < 2**64`` (the C argument is
    ``uint64`` and would wrap anything else).  Returns ``(seeds, words)``
    — ``uint64`` arrays of shape ``(n,)`` and ``(n_out, n)``, equal to
    ``derive_seeds(root_seed, keys)`` and ``raw_outputs(seeds, n_out)``.
    """
    n, k = keys.shape
    seeds = np.empty(n, dtype=np.uint64)
    words = np.empty((n_out, n), dtype=np.uint64)
    _loaded().repro_keyed_raw(n, k, root_seed, keys, n_out, seeds, words)
    return seeds, words


def block_index(visit_location, visit_subloc, location_n_sublocs, sub_off, n_blocks):
    """``(order, ptr)`` of ``PersonLocationGraph.block_visit_index()`` by
    the C counting sort.  Id columns are widened, never narrowed (no bad
    id may wrap back into range); int32 / int64 memmaps go uncopied.  An
    out-of-range id raises ``ValueError`` naming its column."""
    loc, sub = (np.ascontiguousarray(
        c if c.dtype == np.int32 else c.astype(np.int64, casting="safe", copy=False)
    ) for c in (visit_location, visit_subloc))
    n_sub = location_n_sublocs.astype(np.int64, casting="safe")
    if sub.size != loc.size or sub_off.shape != n_sub.shape:
        raise ValueError("visit columns or sub_off disagree in length")
    ptr, order = np.zeros(n_blocks + 1, dtype=np.int64), np.empty(loc.size, dtype=np.int64)
    bad = _loaded().repro_block_index(
        loc.size, loc.ctypes.data, loc.itemsize, sub.ctypes.data, sub.itemsize,
        n_sub, sub_off, n_sub.size, n_blocks, ptr, order,
    )
    if bad:
        raise ValueError(("visit_location", "visit_subloc")[bad - 1] + " out of range")
    return order, ptr


def _loaded() -> ctypes.CDLL:
    lib = _load()
    if lib is False:
        raise RuntimeError(f"compiled kernel unavailable: {_build_error}")
    return lib
