"""Exponential spin-wait backoff for the SMP barrier wait.

A spin wait (:meth:`repro.smp.completion.CounterBarrier.wait`) once
paused a fixed tiny amount per unproductive lap.  On an oversubscribed (or plain small) machine
that is exactly wrong: the waiter keeps getting scheduled and steals
the cycles the worker it is waiting *for* needs, which is a large part
of why the backend measured slower than sequential (``BENCH_smp.json``
before this fix).  :class:`Backoff` makes unproductive laps cheap
first and polite after: a few ``sched_yield`` laps (stay hot when the
peer is about to publish), then sleeps that double up to a cap (get
off the core when it is not).

>>> b = Backoff()
>>> delays = []
>>> for _ in range(8):
...     delays.append(b.next_delay())
...     b.pause()
>>> delays
[0.0, 0.0, 0.0, 0.0, 2e-05, 4e-05, 8e-05, 0.00016]
>>> b.reset(); b.next_delay()
0.0
"""

from __future__ import annotations

import os
import time

__all__ = ["Backoff"]

#: unproductive laps that only yield the core before sleeping starts
YIELD_LAPS = 4
#: first sleep after the yield laps (seconds)
BASE_SLEEP = 2e-5
#: longest single pause — bounds added latency once traffic resumes
MAX_SLEEP = 1e-3

_yield = getattr(os, "sched_yield", lambda: time.sleep(0))


class Backoff:
    """Per-wait escalation state; ``reset()`` on every productive lap."""

    __slots__ = ("_lap",)

    def __init__(self) -> None:
        self._lap = 0

    def reset(self) -> None:
        self._lap = 0

    def next_delay(self) -> float:
        """The delay :meth:`pause` would sleep this lap (0 = yield only)."""
        if self._lap < YIELD_LAPS:
            return 0.0
        return min(MAX_SLEEP, BASE_SLEEP * 2 ** (self._lap - YIELD_LAPS))

    def pause(self) -> None:
        """Yield or sleep, escalating each consecutive unproductive lap."""
        delay = self.next_delay()
        self._lap += 1
        if delay == 0.0:
            _yield()
        else:
            time.sleep(delay)
