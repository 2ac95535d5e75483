"""Application-level message aggregation (paper §IV-C).

PersonManagers send a large volume of small visit messages to
LocationManagers.  Without aggregation every visit pays the full
per-message overhead (envelope bytes + α + CPU overheads).  The paper's
built-in aggregation buffers records per destination and flushes when a
buffer fills or at end of phase — the same idea Charm++ later shipped
as TRAM.

:class:`MessageAggregator` implements per ``(source PE, destination
PE)`` buffers.  Flushed batches travel as one wire message and are
dispatched to their target chares by the destination PE's agent, which
charges a small per-record dispatch cost — so aggregation trades
per-message α for per-record dispatch, exactly the crossover the
buffer-size ablation bench explores.

What rides in a buffer is **columnar**: a list of :class:`RecordBatch`
chunks, each a run of records for one ``(array, method)`` held as index
and payload arrays.  ``append_many`` is defined as the loop of scalar
``append`` calls over its rows (itself the one-row case of the same
buffers): rows are grouped stably per buffer, continuing from the
residue it already holds; a buffer flushes at the row that fills it,
and the flushes are returned **in the order that loop would have
emitted them** — by send position of the filling row.  The rest waits
for the end-of-phase ``flush``, which drains buffers in key order.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

__all__ = ["AggregationRecord", "RecordBatch", "MessageAggregator"]


@dataclass(frozen=True)
class AggregationRecord:
    """One application message, as the scalar ``append`` takes it."""

    array: str
    index: int
    method: str
    payload: object
    payload_bytes: int


@dataclass(frozen=True)
class RecordBatch:
    """A columnar run of records for one ``(array, method)``.

    Record ``i`` carries ``payloads[i]`` to element ``indices[i]`` and
    models ``payload_bytes`` on the wire.  The receiving agent invokes
    the entry method once per target chare with that chare's payload
    slice, send order kept — or, for the ``scalar`` one-row view of an
    :class:`AggregationRecord`, with the bare payload.
    """

    array: str
    method: str
    indices: np.ndarray
    payloads: np.ndarray
    payload_bytes: int
    scalar: bool = False

    @classmethod
    def of_record(cls, record: AggregationRecord) -> "RecordBatch":
        payloads = np.empty(1, dtype=object)
        payloads[0] = record.payload
        return cls(
            record.array, record.method, np.array([record.index], dtype=np.int64),
            payloads, record.payload_bytes, scalar=True,
        )

    def __len__(self) -> int:
        return self.indices.size

    def take(self, rows) -> "RecordBatch":
        """The sub-batch of ``rows`` (a slice, mask or index array)."""
        return RecordBatch(
            self.array, self.method, self.indices[rows], self.payloads[rows],
            self.payload_bytes, self.scalar,
        )

    def by_target(self):
        """Yield ``(target index, payloads)`` per target chare, ascending."""
        if self.scalar:  # at most one row, delivered bare
            yield from zip(self.indices.tolist(), self.payloads)
            return
        indices, payloads = self.indices, self.payloads
        if (indices[1:] < indices[:-1]).any():  # else already grouped: no sort
            order = np.argsort(indices, kind="stable")
            indices, payloads = indices[order], payloads[order]
        for lo, hi in _runs(indices):
            yield int(indices[lo]), payloads[lo:hi]


def _runs(sorted_keys: np.ndarray) -> list[tuple[int, int]]:
    """``(start, stop)`` of each run of equal values in a sorted array."""
    if sorted_keys.size == 0:
        return []
    if sorted_keys[0] == sorted_keys[-1]:  # sorted: one value, one run
        return [(0, sorted_keys.size)]
    cuts = (np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1).tolist()
    return list(zip([0] + cuts, cuts + [sorted_keys.size]))


@dataclass
class _Buffer:
    chunks: list[RecordBatch] = field(default_factory=list)
    bytes: int = 0


class _BufferedChannel:
    """Per-``(PE, next PE)`` buffers — the state both channel kinds share."""

    #: modelled routing-header bytes added to every record on the wire
    header_bytes = 0

    def __init__(self, name: str, buffer_bytes: int = 64 * 1024):
        if buffer_bytes < 0:
            raise ValueError("buffer_bytes must be >= 0")
        self.name = name
        self.buffer_bytes = buffer_bytes
        self._buffers: dict[tuple[int, int], _Buffer] = {}
        # Telemetry for the ablation benches.
        self.records_in: int = 0
        self.batches_out: int = 0

    def _append_one(self, at_pe: int, next_pe: int, chunk: RecordBatch):
        """Buffer a one-row chunk; return the buffer's chunks if it flushed."""
        if self.buffer_bytes == 0:
            self.batches_out += 1
            return [chunk]
        buf = self._buffers.setdefault((at_pe, next_pe), _Buffer())
        buf.chunks.append(chunk)
        buf.bytes += chunk.payload_bytes + self.header_bytes
        if buf.bytes >= self.buffer_bytes:
            self._buffers.pop((at_pe, next_pe))
            self.batches_out += 1
            return buf.chunks
        return None

    def _room(self, held: int, width: int) -> int:
        """Rows of ``width`` bytes that fill a buffer holding ``held``."""
        if width == 0:
            return 1 if self.buffer_bytes == 0 else sys.maxsize
        return max(1, -(-(self.buffer_bytes - held) // width))

    def _append_rows(
        self, at_pe: int, next_pes: np.ndarray, batch: RecordBatch
    ) -> list[tuple[int, list[RecordBatch]]]:
        """:meth:`_append_one` over every row of ``batch``; returns the
        ``(next PE, chunks)`` flushes in that loop's emission order."""
        # the same stable order on the narrowest unsigned copy of the PE
        # ids: numpy's stable sort of <= 16-bit keys is a radix sort
        narrow = np.min_scalar_type(int(next_pes.max())) if next_pes.size else next_pes.dtype
        order = np.argsort(next_pes.astype(narrow), kind="stable")
        keys = next_pes[order]
        rows = batch.take(order)
        width = batch.payload_bytes + self.header_bytes
        flushed = []
        for lo, hi in _runs(keys):
            key = int(keys[lo])
            buf = self._buffers.pop((at_pe, key), None) or _Buffer()
            cut = lo + self._room(buf.bytes, width)
            while cut <= hi:
                buf.chunks.append(rows.take(slice(lo, cut)))
                flushed.append((order[cut - 1], key, buf.chunks))
                buf = _Buffer()
                lo, cut = cut, cut + self._room(0, width)
            if lo < hi:
                buf.chunks.append(rows.take(slice(lo, hi)))
                buf.bytes += (hi - lo) * width
                self._buffers[(at_pe, key)] = buf
        flushed.sort(key=itemgetter(0))
        self.batches_out += len(flushed)
        return [(key, chunks) for _, key, chunks in flushed]

    def flush(self, pe: int) -> list[tuple[int, list[RecordBatch]]]:
        """Drain one PE's buffers in key order: ``[(next_pe, chunks), ...]``."""
        keys = sorted(k for k in self._buffers if k[0] == pe)
        self.batches_out += len(keys)
        return [(key[1], self._buffers.pop(key).chunks) for key in keys]

    def pending(self) -> set[int]:
        """PEs that still buffer records."""
        return {k[0] for k in self._buffers}

    @property
    def aggregation_ratio(self) -> float:
        """Mean records per wire message so far (1.0 = no aggregation win)."""
        return self.records_in / self.batches_out if self.batches_out else 0.0


class MessageAggregator(_BufferedChannel):
    """Per-(src PE, dst PE) aggregation buffers for one channel.

    Parameters
    ----------
    name:
        Channel name (e.g. ``"visits"``).
    buffer_bytes:
        Flush threshold.  ``0`` disables aggregation — every record is
        flushed immediately as its own message (the paper's no-opt
        baseline behaviour, still paying full envelopes).
    """

    #: the PE agent entry method that unpacks this channel's batches
    agent_entry = "recv_batch"

    def append(
        self, src_pe: int, dst_pe: int, record: AggregationRecord
    ) -> list[RecordBatch] | None:
        """Buffer a record; return a batch if the buffer must flush."""
        self.records_in += 1
        return self._append_one(src_pe, dst_pe, RecordBatch.of_record(record))

    def append_many(
        self, src_pe: int, dst_pes: np.ndarray, batch: RecordBatch
    ) -> list[tuple[int, list[RecordBatch]]]:
        """Buffer ``batch`` (row ``i`` bound for ``dst_pes[i]``); return
        the ``(dst_pe, batch)`` flushes in scalar emission order."""
        self.records_in += len(batch)
        return self._append_rows(src_pe, dst_pes, batch)

    flush_source = _BufferedChannel.flush
    pending_sources = _BufferedChannel.pending
