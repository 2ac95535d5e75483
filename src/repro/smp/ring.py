"""Fixed-size SPSC ring buffers and TRAM-style aggregating mailboxes.

Cross-PE traffic in the SMP backend (infect events during the location
phase) flows through a dense ``n_workers x n_workers`` grid of
single-producer/single-consumer ring buffers living in one shared-memory
block — ring ``(src, dst)`` is written only by worker ``src`` and
drained only by worker ``dst``, so no locks are needed:

* each cell is ``[head, tail, slot0, slot1, ...]`` of int64;
* ``tail`` (producer-owned) and ``head`` (consumer-owned) are
  monotonically increasing message counts, reduced mod capacity to
  index slots — the classic Lamport queue, full when
  ``tail - head == capacity``;
* the producer writes the payload slots *before* publishing the new
  ``tail`` and the consumer snapshots ``tail`` before reading slots.
  On the total-store-order memory model of x86 (and for CPython, whose
  eval loop inserts the GIL's barriers around every bytecode) a
  published message's payload is therefore visible to the consumer.

:class:`Mailbox` adds the TRAM idiom from the simulated runtime
(:mod:`repro.charm.tram`): messages are staged in per-destination
batches and flushed into the rings in bursts, and when a destination
ring is full the sender *drains its own inbox* while waiting — the
same deadlock-avoidance rule as Charm++'s yield-on-full-buffer.  A
full grid of senders can therefore never cycle-block: every blocked
sender keeps freeing room in its own inbound rings.

Messages are int64 words; multi-word records (e.g. the 3-word infect
events) set ``record=k`` on the mailbox so bursts never split a record.
Burst size is specified in **bytes** (``burst_bytes``) and rounded down
to a whole number of records, so every record width aggregates the same
wire volume per flush.  The classes work on any int64 numpy array, so
the unit tests in ``tests/smp/test_ring.py`` exercise wraparound and
backpressure on plain in-process arrays with no shared memory at all.

The hot paths are copy-frugal: ring slots are written/read as one or
two contiguous slice assignments (no modular fancy indexing), a flush
of a single staged array pushes it directly without concatenation, and
:func:`route_records` hands callers per-destination *views* of one
destination-sorted array so routing costs exactly one gather.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator

import numpy as np

from repro.smp.backoff import Backoff

__all__ = ["RingGrid", "Mailbox", "RingFull", "route_records"]

_HEADER = 2  # head, tail

#: Default mailbox aggregation budget: 2 KiB per burst (256 one-word
#: records or 85 infect records), the TRAM-style sweet spot measured by
#: ``benchmarks/bench_smp_scaling.py``.
DEFAULT_BURST_BYTES = 2048

_WORD = 8  # int64 bytes


def route_records(values: np.ndarray, dests: np.ndarray, n: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """Group ``values`` by destination with one gather, zero per-dst copies.

    ``values`` holds one record per row (1-D words or an ``(n, k)``
    record array), ``dests[i]`` the destination of row ``i``.  Returns
    ``(routed, parts)`` where ``routed`` is the destination-sorted copy
    and ``parts[d]`` is a contiguous **view** of it
    (``np.shares_memory(parts[d], routed)``) — the slices feed
    :meth:`Mailbox.send` without further copying.

    >>> routed, parts = route_records(np.array([10, 11, 12, 13]),
    ...                               np.array([1, 0, 1, 0]), 2)
    >>> [p.tolist() for p in parts]
    [[11, 13], [10, 12]]
    >>> all(np.shares_memory(p, routed) for p in parts)
    True
    """
    order = np.argsort(dests, kind="stable")
    routed = values[order]
    counts = np.bincount(dests, minlength=n)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return routed, [routed[offsets[d]:offsets[d + 1]] for d in range(n)]


class RingFull(RuntimeError):
    """A push found the destination ring at capacity and no handler set."""


class RingGrid:
    """``n x n`` grid of SPSC rings packed into one int64 block.

    Parameters
    ----------
    block:
        int64 array of shape ``(n, n, 2 + capacity)``; zero-filled
        means "all rings empty".  Use :meth:`shape` to size it.
    capacity:
        Words per ring.

    >>> grid = RingGrid(np.zeros(RingGrid.shape(2, 4), dtype=np.int64), 4)
    >>> grid.try_push(0, 1, [10, 11, 12])
    True
    >>> grid.pop_all(1, 0).tolist()
    [10, 11, 12]
    """

    def __init__(self, block: np.ndarray, capacity: int):
        n = block.shape[0]
        if block.shape != (n, n, _HEADER + capacity):
            raise ValueError(
                f"block shape {block.shape} does not match "
                f"{(n, n, _HEADER + capacity)}"
            )
        self.n = n
        self.capacity = capacity
        self._block = block

    @staticmethod
    def shape(n: int, capacity: int) -> tuple[int, int, int]:
        """Block shape for an ``n x n`` grid with ``capacity`` words/ring."""
        return (n, n, _HEADER + capacity)

    # -- producer side ---------------------------------------------------
    def free(self, src: int, dst: int) -> int:
        """Free words in ring ``(src, dst)`` as seen by the producer."""
        cell = self._block[src, dst]
        return self.capacity - int(cell[1] - cell[0])

    def try_push(self, src: int, dst: int, words) -> bool:
        """Push ``words`` atomically (all or none).  False when full.

        Only worker ``src`` may call this for a given ``(src, dst)``.
        """
        words = np.asarray(words, dtype=np.int64)
        if words.ndim != 1:
            words = words.ravel()
        k = int(words.size)
        if k > self.capacity:
            raise ValueError(
                f"burst of {k} words exceeds ring capacity {self.capacity}"
            )
        cell = self._block[src, dst]
        head = int(cell[0])  # consumer's cursor: may lag, never overshoots
        tail = int(cell[1])  # ours: nobody else writes it
        if tail - head + k > self.capacity:
            return False
        # At most two contiguous slice writes (wraparound splits once);
        # far cheaper than modular fancy indexing.
        pos = tail % self.capacity
        end = pos + k
        if end <= self.capacity:
            cell[_HEADER + pos : _HEADER + end] = words
        else:
            split = self.capacity - pos
            cell[_HEADER + pos : _HEADER + self.capacity] = words[:split]
            cell[_HEADER : _HEADER + end - self.capacity] = words[split:]
        # Publish after the payload: consumers read tail first, slots second.
        cell[1] = tail + k
        return True

    # -- consumer side ---------------------------------------------------
    def pending(self, dst: int, src: int) -> int:
        """Words waiting in ring ``(src, dst)``, seen by the consumer."""
        cell = self._block[src, dst]
        return int(cell[1] - cell[0])

    def pop_all(self, dst: int, src: int) -> np.ndarray:
        """Drain ring ``(src, dst)``.  Only worker ``dst`` may call this."""
        cell = self._block[src, dst]
        tail = int(cell[1])  # snapshot before touching slots
        head = int(cell[0])
        if tail == head:
            return np.empty(0, dtype=np.int64)
        k = tail - head
        pos = head % self.capacity
        end = pos + k
        out = np.empty(k, dtype=np.int64)
        if end <= self.capacity:
            out[:] = cell[_HEADER + pos : _HEADER + end]
        else:
            split = self.capacity - pos
            out[:split] = cell[_HEADER + pos : _HEADER + self.capacity]
            out[split:] = cell[_HEADER : _HEADER + end - self.capacity]
        cell[0] = tail  # release the slots back to the producer
        return out

    def drain_into(self, dst: int) -> Iterator[tuple[int, np.ndarray]]:
        """Yield ``(src, words)`` for every non-empty inbound ring of ``dst``."""
        for src in range(self.n):
            words = self.pop_all(dst, src)
            if words.size:
                yield src, words


class Mailbox:
    """Per-worker send/receive endpoint with TRAM-style aggregation.

    Wraps one :class:`RingGrid` for a fixed worker ``rank``.  Sends are
    staged per destination and flushed as bursts once ``burst_bytes``
    bytes accumulate (or on :meth:`flush`); ``batch`` (words) is the
    legacy spelling of the same budget.  Bursts are always a multiple
    of ``record`` words, so consumers never see a torn record, and the
    byte budget makes wide records aggregate as much wire volume per
    flush as narrow ones.  When a destination ring is full the mailbox
    invokes ``on_backpressure`` — normally the worker's own drain loop
    — until space frees up, which is what makes the all-to-all pattern
    deadlock-free; unproductive backpressure laps back off
    exponentially (:class:`~repro.smp.backoff.Backoff`) so a blocked
    sender stops stealing its consumer's cycles.  ``on_sent`` is
    called with the word count of every successful push; the SMP
    workers wire it to their completion detector's ``produce``, so
    "produced" is counted at publication exactly like TRAM's
    count-on-send.

    >>> grid = RingGrid(np.zeros(RingGrid.shape(2, 8), dtype=np.int64), 8)
    >>> a = Mailbox(grid, rank=0, batch=4)
    >>> b = Mailbox(grid, rank=1, batch=4)
    >>> a.send(1, [1, 2]); a.send(1, [3, 4])   # second send trips the batch
    >>> [(src, w.tolist()) for src, w in b.receive()]
    [(0, [1, 2, 3, 4])]
    >>> a.send(1, [5]); a.flush()
    >>> [(src, w.tolist()) for src, w in b.receive()]
    [(0, [5])]

    The byte budget equalises flush cadence across record widths —
    2048 bytes stages 256 one-word records or 85 three-word infect
    records per burst:

    >>> wide = RingGrid(np.zeros(RingGrid.shape(2, 512), dtype=np.int64), 512)
    >>> Mailbox(wide, 0, burst_bytes=2048).batch
    256
    >>> Mailbox(wide, 0, burst_bytes=2048, record=3).batch
    255
    """

    def __init__(
        self,
        grid: RingGrid,
        rank: int,
        batch: int | None = None,
        record: int = 1,
        burst_bytes: int | None = None,
        on_backpressure: Callable[[], int | None] | None = None,
        on_sent: Callable[[int], None] | None = None,
    ):
        if record < 1 or record > grid.capacity:
            raise ValueError(f"record {record} must be in [1, {grid.capacity}]")
        if batch is not None and burst_bytes is not None:
            raise ValueError("give batch (words) or burst_bytes, not both")
        if burst_bytes is None:
            burst_bytes = DEFAULT_BURST_BYTES if batch is None else batch * _WORD
        batch = max(record, (burst_bytes // (_WORD * record)) * record)
        if batch > grid.capacity:
            raise ValueError(
                f"burst of {batch} words exceeds ring capacity {grid.capacity}"
            )
        self.grid = grid
        self.rank = rank
        #: burst size in words (a whole number of records)
        self.batch = batch
        #: burst size in bytes, as resolved from the budget
        self.burst_bytes = batch * _WORD
        self.record = record
        self.on_backpressure = on_backpressure
        self.on_sent = on_sent
        self._staged: list[list[np.ndarray]] = [[] for _ in range(grid.n)]
        self._staged_words = [0] * grid.n
        self._backoff = Backoff()
        #: words pushed into rings (counted at publication)
        self.words_sent = 0
        self.backpressure_events = 0

    def send(self, dst: int, words) -> None:
        """Stage ``words`` for ``dst``; flush once ``batch`` words pile up.

        ``words`` must be a whole number of records.
        """
        words = np.asarray(words, dtype=np.int64)
        if words.ndim != 1:
            words = words.ravel()  # view for C-contiguous record slices
        if words.size % self.record:
            raise ValueError(
                f"{words.size} words is not a multiple of record={self.record}"
            )
        if not words.size:
            return
        self._staged[dst].append(words)
        self._staged_words[dst] += int(words.size)
        if self._staged_words[dst] >= self.batch:
            self._flush_dst(dst)

    def flush(self) -> None:
        """Push every staged batch out, blocking (politely) on full rings."""
        for dst in range(self.grid.n):
            if self._staged_words[dst]:
                self._flush_dst(dst)

    def _flush_dst(self, dst: int) -> None:
        staged = self._staged[dst]
        # A single staged array (the zero-copy routed-slice fast path)
        # is pushed as-is; only multi-part stages pay a concatenate.
        stage = staged[0] if len(staged) == 1 else np.concatenate(staged)
        self._staged[dst] = []
        self._staged_words[dst] = 0
        offset = 0
        backoff = self._backoff
        while offset < stage.size:
            burst = stage[offset : offset + self.batch]
            if self.grid.try_push(self.rank, dst, burst):
                offset += int(burst.size)
                self.words_sent += int(burst.size)
                backoff.reset()
                if self.on_sent is not None:
                    self.on_sent(int(burst.size))
            else:
                self.backpressure_events += 1
                if self.on_backpressure is None:
                    raise RingFull(
                        f"ring {self.rank}->{dst} full and no backpressure "
                        f"handler installed"
                    )
                # Only back off when draining our own inbox freed
                # nothing — the consumer owns the next move then.
                if not self.on_backpressure():
                    backoff.pause()
                else:
                    backoff.reset()

    def receive(self) -> list[tuple[int, np.ndarray]]:
        """Drain all inbound rings; list of ``(src, words)``."""
        return list(self.grid.drain_into(self.rank))

    @property
    def staged_words(self) -> int:
        return sum(self._staged_words)
