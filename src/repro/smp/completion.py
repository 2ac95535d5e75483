"""A lock-free counter barrier over shared memory.

Every phase boundary of the smp day — person → location, and location
→ apply — is one :class:`CounterBarrier` crossing.  The workers share
one int64 word each in one block; worker ``w`` announces that it
finished the phase numbered ``epoch`` by storing ``epoch`` into its
own word, and the phase is closed for everyone once every word has
reached it::

    epochs[w] = 2 * day + phase      # phase 1: visits, phase 2: records

Epochs only grow, so the block needs no reset: the driver never
touches it between days, and a worker that races ahead into the next
phase can only make the predicate ``min(epochs) >= epoch`` *more*
true.  Each word has a single writer, so plain int64 stores are
race-free.

What a barrier crossing publishes is whatever its writer stored before
the epoch: the rows of the removed-visit mask it owns (phase 1), and
its record segment plus that segment's count
(:class:`~repro.smp.layout.RecordSegments`, phase 2).  On the
total-store-order memory model of x86 a store is never made visible
before an earlier store of the same thread, and CPython's eval loop
inserts the GIL's barriers around every bytecode, so a reader that
sees ``epochs[w] >= epoch`` also sees every store ``w`` made before
it.  Nothing here takes a :mod:`multiprocessing` lock, ``Condition``
or ``Barrier``: a SIGKILLed peer could die holding one, while a dead
peer's word just stops growing — the waiters time out or see the
driver's abort flag.
"""

from __future__ import annotations

import time

import numpy as np

from repro.smp.backoff import Backoff

__all__ = ["CounterBarrier", "PhaseTimeout"]


class PhaseTimeout(RuntimeError):
    """A phase failed to close within the deadline (likely a dead peer)."""


class CounterBarrier:
    """One worker's handle on the shared epoch block.

    Works on any 1-D int64 array with one word per worker — shared
    memory in production, a plain array in tests:

    >>> block = np.zeros(2, dtype=np.int64)
    >>> a, b = CounterBarrier(block, 0), CounterBarrier(block, 1)
    >>> a.arrive(1); a.passed(1)
    False
    >>> b.arrive(1); a.passed(1)
    True
    """

    def __init__(self, epochs: np.ndarray, rank: int):
        if epochs.ndim != 1:
            raise ValueError(f"expected one epoch word per worker, got {epochs.shape}")
        self.epochs = epochs
        self.rank = rank

    def arrive(self, epoch: int) -> None:
        """Publish that this worker finished phase ``epoch`` (and every
        store it made before this call)."""
        self.epochs[self.rank] = epoch

    def passed(self, epoch: int) -> bool:
        """True iff every worker has arrived at ``epoch`` (stable)."""
        return int(self.epochs.min()) >= epoch

    def wait(self, epoch: int, timeout: float | None = None, should_abort=None) -> None:
        """Spin until :meth:`passed`; unproductive laps back off
        (:class:`~repro.smp.backoff.Backoff`: a few ``sched_yield``
        laps, then sleeps doubling to 1 ms) so waiters hand the core to
        the workers still computing.  ``should_abort`` may raise to
        break out when the run is being torn down (a peer died)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        backoff = Backoff()
        while not self.passed(epoch):
            if should_abort is not None:
                should_abort()
            if deadline is not None and time.monotonic() > deadline:
                raise PhaseTimeout(
                    f"worker {self.rank}: epoch {epoch} did not close within "
                    f"{timeout:.1f}s (epochs={self.epochs.tolist()})"
                )
            backoff.pause()
