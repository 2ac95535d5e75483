"""The counter barrier: closure, stability, and its ways out.

The barrier runs on plain arrays here; the property under test is the
predicate itself — ``min(epochs) >= epoch`` over monotonically growing
per-worker words, never reset (see the :mod:`repro.smp.completion`
docstring).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.smp import CounterBarrier, PhaseTimeout


def make_pair(n=2):
    epochs = np.zeros(n, dtype=np.int64)
    return [CounterBarrier(epochs, rank=r) for r in range(n)]


def test_not_closed_until_all_done():
    a, b = make_pair()
    a.arrive(1)
    assert not a.passed(1)                # b never arrived
    b.arrive(1)
    assert a.passed(1) and b.passed(1)


def test_next_epoch_needs_everyone_again():
    # No reset between phases or days: the next phase is a larger epoch.
    a, b = make_pair()
    a.arrive(1)
    b.arrive(1)
    a.arrive(2)
    assert a.passed(1) and not a.passed(2)
    b.arrive(2)
    assert a.passed(2) and not a.passed(3)


@given(st.lists(st.integers(min_value=1, max_value=50), min_size=2, max_size=5))
def test_closed_is_stable_once_true(epochs_reached):
    """Once an epoch has passed it stays passed, however far ahead any
    worker races afterwards (the words only grow)."""
    n = len(epochs_reached)
    barriers = make_pair(n)
    for bar, e in zip(barriers, epochs_reached):
        bar.arrive(e)
    low = min(epochs_reached)
    assert all(bar.passed(low) for bar in barriers)
    for bar, e in zip(barriers, epochs_reached):
        bar.arrive(e + 7)
        assert barriers[0].passed(low)


def test_wait_closed_times_out_on_dead_peer():
    a, b = make_pair()                    # a dies before arriving
    b.arrive(1)
    with pytest.raises(PhaseTimeout, match="did not close"):
        b.wait(1, timeout=0.05)


def test_wait_closed_abort_hook_raises_out():
    class Torn(RuntimeError):
        pass

    def abort():
        raise Torn

    a, b = make_pair()
    b.arrive(1)                           # a never finishes
    with pytest.raises(Torn):
        b.wait(1, timeout=5.0, should_abort=abort)


def test_counter_shape_validated():
    with pytest.raises(ValueError, match="one epoch word per worker"):
        CounterBarrier(np.zeros((2, 4), dtype=np.int64), rank=0)
