"""One worker runtime under both process pools: spawn, park, close.

As in the paper's SMP mode (§IV-A), one runtime sits under every
worker: :class:`Workers` is the process layer of
:class:`repro.lab.WorkerPool` (a worker owns whole runs) and of
:class:`repro.smp.SmpSimulator` (a worker owns a slice of one run).  It
forks ``n`` workers, one duplex pipe each, and parks in one
:func:`multiprocessing.connection.wait` over the pending pipes *and*
their process sentinels: a death wakes the driver at once, and a frame
written before the death is still read first.  Workers are not daemons,
so one may fork (an smp run in a pooled sweep); a ``Finalize`` closes
the workers nobody closed, at collection or at interpreter exit.  Each
child closes the driver-side pipe ends it inherited, so when the driver
dies, even by SIGKILL, its workers read EOF or write a broken pipe.

The framing both protocols share is here too: :func:`opcode`, the one
error frame ``(opcode, id, exc_repr, traceback)``, and
:func:`claim_opcodes`, which keeps the opcode tables disjoint.
"""

from __future__ import annotations

import multiprocessing
import struct
import traceback
from multiprocessing import connection, util

__all__ = ["OP_ERROR", "WorkerError", "Workers", "claim_opcodes",
           "decode_error", "encode_error", "opcode"]

OP_ERROR = 255
_ERROR = struct.Struct("<qqqq")  # opcode, id, len(exc_repr), len(traceback)
_OWNERS: dict[int, str] = {OP_ERROR: __name__}  # opcode -> protocol
_DRIVER_ENDS: set = set()  # every driver-side pipe end open in this process
_JOIN_S = 5.0  # how long close() waits for a worker before terminating it


def opcode(buf: bytes) -> int:
    """Peek a frame's opcode without decoding the rest."""
    return struct.unpack_from("<q", buf)[0]


def claim_opcodes(owner: str, *ops: int) -> None:
    """Claim ``ops`` for ``owner``'s protocol; raise if another owns one."""
    clash = {op: _OWNERS[op] for op in ops if _OWNERS.setdefault(op, owner) != owner}
    if clash:
        raise ValueError(f"{owner} claims opcodes of another protocol: {clash}")


def encode_error(frame_id: int, exc_repr: str, traceback_text: str) -> bytes:
    """Pack a failure: opcode, id, then two length-prefixed UTF-8 strings.

    >>> decode_error(encode_error(3, "ValueError('x')", "trace"))
    (3, "ValueError('x')", 'trace')
    """
    a = exc_repr.encode("utf-8", errors="replace")
    b = traceback_text.encode("utf-8", errors="replace")
    return _ERROR.pack(OP_ERROR, frame_id, len(a), len(b)) + a + b


def decode_error(buf: bytes) -> tuple[int, str, str]:
    """Decode a failure into ``(id, exc_repr, traceback)``."""
    op, frame_id, na, nb = _ERROR.unpack_from(buf)
    if op != OP_ERROR:
        raise ValueError(f"expected error opcode {OP_ERROR}, got {op}")
    a = buf[_ERROR.size : _ERROR.size + na]
    b = buf[_ERROR.size + na : _ERROR.size + na + nb]
    return frame_id, a.decode("utf-8", errors="replace"), b.decode("utf-8", errors="replace")


class WorkerError(RuntimeError):
    """A worker died, or reported an exception in an error frame.

    ``task`` is the id last sent to that worker; ``exitcode`` is set
    when it died.  Subclasses word the two messages for their own task.
    """

    DIED = "worker {rank} died (exit code {exitcode}) on task {task}"
    FAILED = "task {task} failed on worker {rank}: {exc}\n{tb}"

    def __init__(self, rank: int, task, exitcode=None, failure=None):
        self.rank, self.task, self.exitcode = rank, task, exitcode
        exc, tb = failure or (None, None)
        message = self.DIED if failure is None else self.FAILED
        super().__init__(message.format(rank=rank, task=task, exitcode=exitcode, exc=exc, tb=tb))


def _child(target, rank: int, conn, args) -> None:
    while _DRIVER_ENDS:
        _DRIVER_ENDS.pop().close()
    try:
        target(rank, conn, *args)
    except (EOFError, KeyboardInterrupt):
        pass  # the driver closed the pipe, or Ctrl-C reached the whole group
    except Exception as exc:
        try:
            conn.send_bytes(encode_error(rank, repr(exc), traceback.format_exc()))
        except OSError:
            pass  # the driver is gone
    finally:
        conn.close()


def _shutdown(procs: list, conns: list, stop: bytes) -> None:
    for conn in conns:  # a worker reads its stop frame before the EOF
        try:
            conn.send_bytes(stop)
        except OSError:
            pass  # that worker is gone already
        conn.close()
        _DRIVER_ENDS.discard(conn)
    for p in procs:
        p.join(timeout=_JOIN_S)
        if p.exitcode is None:  # pragma: no cover - last resort
            p.terminate()
            p.join(timeout=_JOIN_S)


class Workers:
    """``n`` forked processes; worker ``rank`` runs ``target(rank, conn, *args)``.

    ``conn`` is its end of the pipe.  An exception escaping ``target``
    comes back as an error frame with the rank as id; EOF on ``conn``
    ends the worker quietly.  ``close()`` sends every worker ``stop``; a
    death or an error frame raises ``error``.
    """

    def __init__(self, n: int, target, args=(), *, stop: bytes, error=WorkerError):
        self.error = error
        self._procs: list = []
        self._conns: list = []
        self._task: list = [None] * n
        # close() runs once: when called, when collected, or at exit
        self.close = util.Finalize(
            self, _shutdown, args=(self._procs, self._conns, stop), exitpriority=10
        )
        mp = multiprocessing.get_context("fork")
        for rank in range(n):
            driver_end, worker_end = mp.Pipe()
            _DRIVER_ENDS.add(driver_end)
            self._conns.append(driver_end)
            p = mp.Process(target=_child, args=(target, rank, worker_end, args))
            p.start()
            worker_end.close()  # the worker keeps its inherited copy
            self._procs.append(p)

    @property
    def pids(self) -> list[int]:
        return [p.pid for p in self._procs]

    def send(self, rank: int, frame: bytes, task) -> None:
        """Send ``frame`` to worker ``rank``; a failure there names ``task``."""
        self._task[rank] = task
        try:
            self._conns[rank].send_bytes(frame)
        except OSError:
            raise self._died(rank) from None

    def broadcast(self, frame: bytes, task) -> None:
        for rank in range(len(self._conns)):
            self.send(rank, frame, task)

    def recv(self, ranks) -> list[tuple[int, bytes]]:
        """Park until one of ``ranks`` has a frame or dies; return every
        ``(rank, frame)`` ready, in rank order."""
        waiting = {}
        for rank in ranks:
            waiting[self._conns[rank]] = waiting[self._procs[rank].sentinel] = rank
        frames = []
        for rank in sorted({waiting[obj] for obj in connection.wait(list(waiting))}):
            conn = self._conns[rank]
            try:
                if not conn.poll():
                    raise EOFError  # only the sentinel woke: it died mid-task
                frame = conn.recv_bytes()
            except (EOFError, OSError):  # OSError: reset by a killed peer
                raise self._died(rank) from None
            if opcode(frame) == OP_ERROR:
                raise self.error(rank, self._task[rank], failure=decode_error(frame)[1:])
            frames.append((rank, frame))
        return frames

    def _died(self, rank: int) -> WorkerError:
        p = self._procs[rank]
        p.join(timeout=_JOIN_S)
        return self.error(rank, self._task[rank], exitcode=p.exitcode)
