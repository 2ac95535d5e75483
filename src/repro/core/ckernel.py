"""C hot path for the exposure kernel (built on demand via ``ctypes``).

The ``"compiled"`` exposure kernel replaces the pair-materialising part
of the ``"flat"`` kernel — segmented S×I enumeration, per-pair hazard
evaluation, per-(location, person) hazard/bincount reduction and the
earliest-minute ``minimum.at`` — with one streaming C loop that never
allocates a per-pair array.  Everything around it (the candidate
filter, the ``(location, sublocation)`` lexsort, the infection draw)
stays in numpy, which is what keeps the result **bit-identical** to
the other kernels:

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

The shared library is compiled once per source hash with the system C
compiler (``$CC``, else ``cc``/``gcc``/``clang``) into a cache
directory and memoised per process; forked SMP workers inherit the
mapping.  ``-ffp-contract=off`` keeps the compiler from fusing the
multiply-add into an FMA that would change the bits.

No toolchain (or ``REPRO_NO_CKERNEL=1``) simply means
:func:`available` is ``False``: callers fall back to the pure-numpy
kernels and tests skip cleanly — nothing in the repo *requires* a
compiler.
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

__all__ = ["available", "build_error", "accumulate_exposures", "cache_dir"]

C_SOURCE = r"""
#include <stdint.h>

/* Accumulate S x I exposure hazards, streaming, without materialising
 * pairs.  Rows are the day's candidate visits (every one susceptible
 * or infectious at an active location).  Susceptible rows are walked
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
"""

_I64 = np.ctypeslib.ndpointer(dtype=np.int64, flags="C_CONTIGUOUS")
_U8 = np.ctypeslib.ndpointer(dtype=np.uint8, flags="C_CONTIGUOUS")
_F64 = np.ctypeslib.ndpointer(dtype=np.float64, flags="C_CONTIGUOUS")

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
    block that holds both today (the C comment's "active location" is
    that block; the source text is frozen because it names the cached
    library).  All array arguments must be C-contiguous with the dtypes
    of the C signature; ``total_hazard`` / ``first_minute`` /
    ``pair_count`` are written in place (callers initialise them).
    """
    lib = _load()
    if lib is False:
        raise RuntimeError(f"compiled kernel unavailable: {_build_error}")
    return int(
        lib.repro_accumulate_exposures(
            vstart.size, vstart, vend, state, sus, slot, row_block,
            inf_rows, inf_off, haz_table, n_states,
            total_hazard, first_minute, pair_count,
        )
    )
