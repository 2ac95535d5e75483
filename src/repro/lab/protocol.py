"""Fixed-layout wire protocol for the lab worker pool (no pickle).

Same conventions as :mod:`repro.smp.protocol`: every frame is a
struct-packed header followed by raw array bytes or UTF-8 payloads,
crossing the pipes via ``Connection.send_bytes``/``recv_bytes`` — never
a pickled object — and every frame size is an explicit function of its
counts (:func:`result_nbytes`), so tests can hold the pool's barrier
traffic to a byte budget.

* **downlink** (driver → worker): a task frame — 24-byte header
  ``(opcode, task_id, spec_nbytes)`` plus the canonical-JSON bytes of
  the :class:`~repro.spec.RunSpec` (text, not pickle: the worker
  rebuilds the spec through the same :meth:`RunSpec.from_json` any
  user would, so a sweep task is exactly a CLI run); and a fixed
  24-byte stop frame.
* **uplink** (worker → driver): a result frame — 56-byte header
  ``(opcode, task_id, n_days, total_infections, builds, hist_nbytes,
  wall_seconds)`` followed by the raw ``int64`` bytes of
  the per-day new-infection counts, the raw ``float64`` bytes of the
  per-day prevalence series, and the sorted-key JSON of the final
  state histogram; or the shared error frame of :mod:`repro.workers`
  (opcode + task id + two length-prefixed UTF-8 strings).
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

from repro.workers import claim_opcodes

__all__ = [
    "OP_TASK",
    "OP_STOP",
    "OP_RESULT",
    "TASK_HEADER_NBYTES",
    "RESULT_HEADER_NBYTES",
    "TaskResult",
    "encode_task",
    "decode_task",
    "encode_stop",
    "encode_result",
    "decode_result",
    "result_nbytes",
]

OP_TASK = 16
OP_STOP = 17
OP_RESULT = 18
claim_opcodes(__name__, OP_TASK, OP_STOP, OP_RESULT)

_TASK = struct.Struct("<qqq")  # opcode, task_id, spec_nbytes
TASK_HEADER_NBYTES = _TASK.size  # 24

#: opcode, task_id, n_days, total_infections, builds, hist_nbytes,
#: wall_seconds
_RESULT = struct.Struct("<qqqqqqd")
RESULT_HEADER_NBYTES = _RESULT.size  # 56

_WORD = 8

_STOP_BYTES = _TASK.pack(OP_STOP, 0, 0)


@dataclass
class TaskResult:
    """One worker's decoded result frame."""

    task_id: int
    new_infections: np.ndarray
    prevalence: np.ndarray
    total_infections: int
    final_histogram: dict
    wall_seconds: float
    builds: int


def encode_task(task_id: int, spec_json: str) -> bytes:
    """Pack one task frame (header + canonical-JSON spec bytes).

    >>> tid, spec = decode_task(encode_task(3, '{"n_days":4}'))
    >>> (tid, spec)
    (3, '{"n_days":4}')
    """
    payload = spec_json.encode("utf-8")
    return _TASK.pack(OP_TASK, task_id, len(payload)) + payload


def decode_task(buf: bytes) -> tuple[int, str]:
    """Decode a task frame into ``(task_id, spec_json)``."""
    op, task_id, n = _TASK.unpack_from(buf)
    if op != OP_TASK:
        raise ValueError(f"expected task opcode {OP_TASK}, got {op}")
    payload = buf[TASK_HEADER_NBYTES : TASK_HEADER_NBYTES + n]
    return task_id, payload.decode("utf-8")


def encode_stop() -> bytes:
    """The pool's shutdown frame (fixed task-header layout).

    >>> from repro.workers import opcode
    >>> opcode(encode_stop()) == OP_STOP
    True
    """
    return _STOP_BYTES


def result_nbytes(n_days: int, hist_nbytes: int) -> int:
    """Exact uplink size for the given counts — the wire-budget formula.

    >>> result_nbytes(0, 0)
    56
    >>> result_nbytes(4, 10)
    130
    """
    return RESULT_HEADER_NBYTES + 2 * _WORD * n_days + hist_nbytes


def encode_result(result: TaskResult) -> bytes:
    """Pack one result frame (header + raw array bytes + histogram JSON)."""
    new = np.ascontiguousarray(result.new_infections, dtype=np.int64)
    prev = np.ascontiguousarray(result.prevalence, dtype=np.float64)
    if new.size != prev.size:
        raise ValueError("new_infections and prevalence must align per day")
    hist = json.dumps(
        result.final_histogram, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    head = _RESULT.pack(
        OP_RESULT, result.task_id, new.size, result.total_infections,
        result.builds, len(hist), result.wall_seconds,
    )
    return b"".join((head, new.tobytes(), prev.tobytes(), hist))


def decode_result(buf: bytes) -> TaskResult:
    """Decode one result frame; arrays are zero-copy views of ``buf``."""
    op, task_id, n_days, total, builds, hist_n, wall = _RESULT.unpack_from(buf)
    if op != OP_RESULT:
        raise ValueError(f"expected result opcode {OP_RESULT}, got {op}")
    offset = RESULT_HEADER_NBYTES
    new = np.frombuffer(buf, dtype=np.int64, count=n_days, offset=offset)
    offset += n_days * _WORD
    prev = np.frombuffer(buf, dtype=np.float64, count=n_days, offset=offset)
    offset += n_days * _WORD
    hist = json.loads(buf[offset : offset + hist_n].decode("utf-8"))
    return TaskResult(
        task_id=task_id, new_infections=new, prevalence=prev,
        total_infections=total, final_histogram=hist,
        wall_seconds=wall, builds=builds,
    )
