"""TRAM-like topological routing and aggregation.

The paper's footnote 1: "the CHARM++ team is currently working on TRAM
(Topological Routing and Aggregation Module), which implements an
application agnostic message aggregation in the runtime — however, this
module was not available prior to the generation of most of the results
presented here, and we are not yet able to determine to what degree it
can replace our application-aware strategy."

We implement the TRAM idea so that comparison can be made (see
``bench_sec4_ablations.test_ablation_tram_vs_direct``): PEs are
arranged in a virtual 2-D grid; a record for PE ``(r2, c2)`` from
``(r1, c1)`` routes along the row to ``(r1, c2)`` and then down the
column.  Each PE keeps aggregation buffers only toward its ~2·√P grid
neighbours instead of toward all P peers, so buffers fill — and
amortise per-message overheads — at much smaller per-destination
traffic, at the price of an extra hop and per-record forwarding work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.charm.aggregation import AggregationRecord, RecordBatch, _BufferedChannel

__all__ = ["TramRecord", "TramChannel"]


@dataclass(frozen=True)
class TramRecord:
    """One application record tagged with its final PE (scalar ``append``)."""

    dst_pe: int
    inner: AggregationRecord


class TramChannel(_BufferedChannel):
    """2-D mesh routing with per-neighbour aggregation buffers.

    Parameters
    ----------
    name:
        Channel name.
    n_pes:
        Grid size; the virtual mesh is ``rows × cols`` with
        ``cols = floor(sqrt(P))`` and ``rows = ceil(P / cols)`` (the
        last row may be ragged).  Row-first routing with the ragged
        fallback in :meth:`next_hop` still delivers every record in at
        most two mesh hops.
    buffer_bytes:
        Flush threshold per (PE, neighbour) buffer; 0 disables
        buffering (records forward immediately, still via the mesh).
    """

    #: routing header riding on top of each record's application payload
    header_bytes = 4
    agent_entry = "tram_batch"

    def __init__(self, name: str, n_pes: int, buffer_bytes: int = 16 * 1024):
        if n_pes < 1:
            raise ValueError("need at least one PE")
        super().__init__(name, buffer_bytes)
        self.n_pes = n_pes
        self.cols = max(1, int(math.isqrt(n_pes)))
        self.forwards = 0

    # -- mesh geometry ---------------------------------------------------
    def coords(self, pe: int) -> tuple[int, int]:
        return pe // self.cols, pe % self.cols

    def next_hop(self, at_pe: int, dst_pe: int) -> int:
        """Row-first dimension-ordered routing."""
        r1, c1 = self.coords(at_pe)
        r2, c2 = self.coords(dst_pe)
        if c1 != c2:
            candidate = r1 * self.cols + c2
            # Ragged last row: if the row-peer doesn't exist, drop to the
            # column immediately.
            if candidate < self.n_pes:
                return candidate
        return dst_pe

    def next_hops(self, at_pe: int, dst_pes: np.ndarray) -> np.ndarray:
        """:meth:`next_hop` for an array of destinations."""
        candidate = at_pe // self.cols * self.cols + dst_pes % self.cols
        return np.where((candidate != at_pe) & (candidate < self.n_pes), candidate, dst_pes)

    # -- buffering ---------------------------------------------------------
    def _count(self, n: int, count_in: bool) -> None:
        if count_in:
            self.records_in += n
        else:
            self.forwards += n

    def append(
        self, at_pe: int, record: TramRecord, count_in: bool = True
    ) -> tuple[int, list[RecordBatch]] | None:
        """Buffer a record at ``at_pe``; return ``(hop, batch)`` on flush."""
        self._count(1, count_in)
        hop = self.next_hop(at_pe, record.dst_pe)
        batch = self._append_one(at_pe, hop, RecordBatch.of_record(record.inner))
        return None if batch is None else (hop, batch)

    def append_many(
        self, at_pe: int, dst_pes: np.ndarray, batch: RecordBatch, count_in: bool = True
    ) -> list[tuple[int, list[RecordBatch]]]:
        """Buffer ``batch`` at ``at_pe`` (row ``i`` bound for ``dst_pes[i]``);
        return the ``(hop, batch)`` flushes in scalar emission order."""
        self._count(len(batch), count_in)
        return self._append_rows(at_pe, self.next_hops(at_pe, dst_pes), batch)

    flush_pe = _BufferedChannel.flush
    pending_pes = _BufferedChannel.pending
