"""Fixed-layout wire protocol for the SMP day barrier (no pickle).

The per-day driver↔worker pipe traffic is struct-packed bytes over
``Connection.send_bytes``/``recv_bytes`` (pickled per-event tuples once
cost a measurable share of the SMP run):

* **downlink** (driver → worker): one fixed 32-byte command —
  ``(opcode, day, prevalence, cumulative_attack)`` — for both the
  day kick-off and the stop signal;
* **uplink** (worker → driver): a fixed 88-byte ``day_done`` header
  (counts + the four phase-boundary clocks) followed, when location
  stats are collected, by their ``(key, count)`` pair arrays.  Arrays
  cross the pipe as ``ndarray.tobytes()`` / ``np.frombuffer`` — a
  length-prefixed memcpy, never a pickle.  Infect records never cross
  a pipe: the driver reads them from the workers' shared record
  segments;
* **errors**: the shared error frame of :mod:`repro.workers`.

Every message size is an explicit function of its counts
(:func:`report_nbytes`), which is what lets the regression tests put a
hard bytes-on-the-wire budget on the day barrier.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from repro.workers import claim_opcodes

__all__ = [
    "OP_DAY",
    "OP_STOP",
    "OP_DAY_DONE",
    "COMMAND_NBYTES",
    "REPORT_HEADER_NBYTES",
    "DayReport",
    "encode_day",
    "encode_stop",
    "decode_command",
    "encode_report",
    "decode_report",
    "report_nbytes",
]

OP_DAY = 0
OP_STOP = 1
OP_DAY_DONE = 2
claim_opcodes(__name__, OP_DAY, OP_STOP, OP_DAY_DONE)

#: driver → worker: opcode, day, prevalence, cumulative_attack
_COMMAND = struct.Struct("<qqdd")
COMMAND_NBYTES = _COMMAND.size  # 32

#: worker → driver header: opcode, day, transitions, visits_made,
#: infected, n_stats_events, n_stats_inter, then the four
#: phase-boundary perf_counter clocks t0..t3
_REPORT = struct.Struct("<qqqqqqqdddd")
REPORT_HEADER_NBYTES = _REPORT.size  # 88

_WORD = 8

_STOP_BYTES = _COMMAND.pack(OP_STOP, 0, 0.0, 0.0)


@dataclass
class DayReport:
    """One worker's decoded ``day_done`` message."""

    day: int
    transitions: int
    visits_made: int
    infected: int
    #: phase-boundary clocks (perf_counter): start, visits done,
    #: locations done, day done
    clocks: tuple[float, float, float, float]
    #: ``(location_key, count)`` arrays when stats were collected
    stats_events: tuple[np.ndarray, np.ndarray] | None = None
    stats_interactions: tuple[np.ndarray, np.ndarray] | None = None


def encode_day(
    day: int, prevalence: float, cumulative_attack: float, extra: bytes = b""
) -> bytes:
    """The driver's day kick-off (fixed :data:`COMMAND_NBYTES` bytes).

    ``extra`` appends an opaque scenario wire-state blob (see
    :meth:`repro.core.interventions.InterventionSchedule.wire_state`);
    workers detect it by message length, so the common empty case keeps
    the exact 32-byte budget.

    >>> decode_command(encode_day(3, 0.25, 0.5))
    (0, 3, 0.25, 0.5)
    >>> decode_command(encode_day(3, 0.25, 0.5, b"state"))
    (0, 3, 0.25, 0.5)
    """
    return _COMMAND.pack(OP_DAY, day, prevalence, cumulative_attack) + extra


def encode_stop() -> bytes:
    """The driver's shutdown signal (same fixed layout).

    >>> decode_command(encode_stop())[0] == OP_STOP
    True
    """
    return _STOP_BYTES


def decode_command(buf: bytes) -> tuple[int, int, float, float]:
    """Decode a downlink command into ``(opcode, day, prevalence, attack)``.

    Ignores any trailing wire-state blob (``buf[COMMAND_NBYTES:]``);
    the worker slices that off separately.
    """
    return _COMMAND.unpack_from(buf)


def report_nbytes(n_stats_events: int = 0, n_stats_inter: int = 0) -> int:
    """Exact uplink size for the given counts — the wire-budget formula.

    >>> report_nbytes()
    88
    >>> report_nbytes(2, 3)
    168
    """
    return REPORT_HEADER_NBYTES + 2 * _WORD * (n_stats_events + n_stats_inter)


def _pairs_bytes(stats: tuple[np.ndarray, np.ndarray] | None) -> bytes:
    if stats is None:
        return b""
    keys, counts = stats
    return (
        np.ascontiguousarray(keys, dtype=np.int64).tobytes()
        + np.ascontiguousarray(counts, dtype=np.int64).tobytes()
    )


def encode_report(report: DayReport) -> bytes:
    """Pack one ``day_done`` message (header + raw int64 array bytes)."""
    n_se = 0 if report.stats_events is None else int(report.stats_events[0].size)
    n_si = (
        0
        if report.stats_interactions is None
        else int(report.stats_interactions[0].size)
    )
    head = _REPORT.pack(
        OP_DAY_DONE, report.day, report.transitions, report.visits_made,
        report.infected, n_se, n_si, *report.clocks,
    )
    return b"".join(
        (head, _pairs_bytes(report.stats_events), _pairs_bytes(report.stats_interactions))
    )


def _read_pairs(buf: bytes, offset: int, n: int):
    if n == 0:
        return None, offset
    keys = np.frombuffer(buf, dtype=np.int64, count=n, offset=offset)
    offset += n * _WORD
    counts = np.frombuffer(buf, dtype=np.int64, count=n, offset=offset)
    return (keys, counts), offset + n * _WORD


def decode_report(buf: bytes) -> DayReport:
    """Decode one ``day_done`` message; arrays are zero-copy views of
    ``buf``."""
    (op, day, transitions, visits_made, infected,
     n_se, n_si, t0, t1, t2, t3) = _REPORT.unpack_from(buf)
    if op != OP_DAY_DONE:
        raise ValueError(f"expected day_done opcode {OP_DAY_DONE}, got {op}")
    stats_events, offset = _read_pairs(buf, REPORT_HEADER_NBYTES, n_se)
    stats_interactions, offset = _read_pairs(buf, offset, n_si)
    return DayReport(
        day=day, transitions=transitions, visits_made=visits_made,
        infected=infected, clocks=(t0, t1, t2, t3),
        stats_events=stats_events, stats_interactions=stats_interactions,
    )
