"""Named shared-memory segments with guaranteed cleanup.

The SMP backend keeps all cross-process state — person health arrays,
record segments, barrier epochs — in POSIX shared memory
(:class:`multiprocessing.shared_memory.SharedMemory`) so worker
processes operate on the *same* physical pages, not copies.  A
:class:`SharedArena` owns every segment of one run: it hands out numpy
views backed by named segments and unlinks all of them on
:meth:`close`, including on failure paths (``tests/smp/conftest.py``
scans ``/dev/shm`` for leaks after every test).

Workers are forked (see :mod:`repro.smp.backend`), so they inherit the
parent's mappings directly — no re-attach, no per-child
resource-tracker registration, and exactly one process (the driver)
responsible for unlinking.
"""

from __future__ import annotations

import os
import secrets
from multiprocessing import shared_memory

import numpy as np

__all__ = ["SEGMENT_PREFIX", "SharedArena"]

#: Every segment name starts with this — the leak-check fixture and
#: operators cleaning ``/dev/shm`` by hand both key off it.
SEGMENT_PREFIX = "repro-smp"


class SharedArena:
    """Allocator/owner of one run's shared-memory segments.

    >>> arena = SharedArena()
    >>> a = arena.alloc("counters", (4,), np.int64)
    >>> a[:] = 7
    >>> int(a.sum())
    28
    >>> arena.close()
    >>> arena.closed
    True
    """

    def __init__(self, tag: str = ""):
        token = secrets.token_hex(4)
        self._prefix = f"{SEGMENT_PREFIX}-{os.getpid()}-{token}" + (
            f"-{tag}" if tag else ""
        )
        self._segments: list[shared_memory.SharedMemory] = []
        self._arrays: list[np.ndarray] = []
        self.closed = False

    @property
    def segment_names(self) -> list[str]:
        """Names of all live segments (as they appear under ``/dev/shm``)."""
        return [seg.name for seg in self._segments]

    def alloc(self, name: str, shape: tuple, dtype=np.int64) -> np.ndarray:
        """Create a zero-filled shared segment; return a numpy view of it.

        A new POSIX segment reads as zeros (``ftruncate``), so its pages
        are touched only when something writes them.
        """
        if self.closed:
            raise RuntimeError("arena is closed")
        nbytes = max(1, int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype).itemsize)
        seg = shared_memory.SharedMemory(
            create=True, name=f"{self._prefix}-{name}", size=nbytes
        )
        arr = np.ndarray(shape, dtype=dtype, buffer=seg.buf)
        self._segments.append(seg)
        self._arrays.append(arr)
        return arr

    def share(self, name: str, source: np.ndarray) -> np.ndarray:
        """Shared copy of ``source`` (same shape/dtype, contents copied)."""
        arr = self.alloc(name, source.shape, source.dtype)
        arr[:] = source
        return arr

    def close(self) -> None:
        """Unlink (and best-effort unmap) every segment.  Idempotent.

        Unlink runs first: it always succeeds and removes the
        ``/dev/shm`` entry even while other processes still hold
        mappings (they keep working on the anonymous pages until they
        exit — standard POSIX semantics).  Unmapping can legitimately
        fail with :class:`BufferError` if a caller still holds a numpy
        view; the memory is then reclaimed at process exit instead.
        """
        if self.closed:
            return
        self.closed = True
        self._arrays.clear()
        for seg in self._segments:
            try:
                seg.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            try:
                seg.close()
            except BufferError:  # pragma: no cover - a view outlived us
                pass
        self._segments.clear()

    def __enter__(self) -> "SharedArena":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - belt and braces
        try:
            self.close()
        except Exception:
            pass
