"""The one worker runtime: framing, park, death, error frames, shutdown.

Every worker here is a real forked process.  A death must wake the
driver through its process sentinel (no poll tick), name the rank, the
task and the exit code, and never hide a frame the worker wrote before
it died; a worker may fork in turn; and no worker outlives an
interpreter that forgot to close its pool.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro import workers
from repro.lab import protocol as lp
from repro.smp import protocol as sp
from repro.workers import WorkerError, Workers

STOP = b"stop".ljust(8, b"\0")
SRC = Path(__file__).resolve().parent.parent / "src"


def _echo(rank, conn):
    """Answer every frame with rank + frame, until ``STOP`` (frames, like
    every protocol's, start with an 8-byte word)."""
    while True:
        buf = conn.recv_bytes()
        if buf == STOP:
            return
        conn.send_bytes(bytes([rank]) + buf)


def _exit_on_frame(rank, conn, code):
    conn.recv_bytes()
    os._exit(code)


def _answer_then_exit(rank, conn):
    conn.send_bytes(conn.recv_bytes())
    os._exit(3)


def _raise_on_frame(rank, conn):
    conn.recv_bytes()
    raise ValueError("bad frame")


def _fork_a_grandchild(rank, conn):
    conn.recv_bytes()
    child = multiprocessing.get_context("fork").Process(target=os._exit, args=(0,))
    child.start()
    child.join()
    conn.send_bytes(bytes([child.exitcode]).ljust(8, b"\0"))
    conn.recv_bytes()


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def test_shared_framing_rejects_crossed_wires():
    """The error frame refuses another protocol's frame, and no protocol
    may claim an opcode another one owns.  (The error frame's round trip
    and the disjoint tables are tested beside each protocol.)"""
    with pytest.raises(ValueError, match="expected error opcode"):
        workers.decode_error(sp.encode_day(1, 0.0, 0.0))
    assert workers.opcode(sp.encode_day(4, 0.5, 0.25)) == sp.OP_DAY
    with pytest.raises(ValueError, match="claims opcodes"):
        workers.claim_opcodes("a crossed wire", lp.OP_TASK)
    with pytest.raises(ValueError, match="claims opcodes"):
        workers.claim_opcodes("a crossed wire", sp.OP_DAY_DONE)


def test_frames_go_out_and_come_back_in_rank_order():
    pool = Workers(2, _echo, stop=STOP)
    try:
        pool.broadcast(b"frame ab", task=0)
        got = []
        while len(got) < 2:
            got += pool.recv({0, 1} - {rank for rank, _ in got})
        assert sorted(got) == [(0, b"\0frame ab"), (1, b"\1frame ab")]
        pool.send(1, b"frame cd", task=1)
        assert pool.recv([1]) == [(1, b"\1frame cd")]
    finally:
        pool.close()
    assert not any(_alive(pid) for pid in pool.pids)


def test_death_wakes_the_driver_with_rank_task_and_exit_code():
    pool = Workers(2, _exit_on_frame, (5,), stop=STOP)
    try:
        pool.send(1, b"go", task=7)
        t0 = time.monotonic()
        with pytest.raises(WorkerError, match=r"worker 1 died \(exit code 5\) on task 7") as err:
            pool.recv([0, 1])
        assert time.monotonic() - t0 < 5.0
        assert (err.value.rank, err.value.task, err.value.exitcode) == (1, 7, 5)
    finally:
        pool.close()


def test_a_frame_written_before_exit_is_read_before_the_death():
    pool = Workers(1, _answer_then_exit, stop=STOP)
    try:
        pool.send(0, b"last words", task=0)
        time.sleep(0.2)  # the worker has exited by now
        assert pool.recv([0]) == [(0, b"last words")]
        with pytest.raises(WorkerError, match="exit code 3"):
            pool.recv([0])
    finally:
        pool.close()


def test_an_escaping_exception_comes_back_as_an_error_frame():
    pool = Workers(1, _raise_on_frame, stop=STOP)
    try:
        pool.send(0, b"x", task=2)
        with pytest.raises(WorkerError, match="task 2 failed on worker 0: ValueError") as err:
            pool.recv([0])
        assert "Traceback" in str(err.value)
    finally:
        pool.close()


def test_send_to_a_killed_worker_raises_with_its_exit_code():
    pool = Workers(1, _echo, stop=STOP)
    try:
        os.kill(pool.pids[0], signal.SIGKILL)
        with pytest.raises(WorkerError, match="exit code -9"):
            pool.send(0, b"x", task=0)
            pool.recv([0])
    finally:
        pool.close()
        pool.close()  # idempotent


def test_a_worker_may_fork():
    pool = Workers(1, _fork_a_grandchild, stop=STOP)
    try:
        pool.send(0, b"go", task=0)
        assert pool.recv([0]) == [(0, bytes(8))]
    finally:
        pool.close()


def test_no_worker_outlives_an_unclosed_pool():
    script = textwrap.dedent(
        """
        from repro.lab import WorkerPool
        pool = WorkerPool(2)
        print(*pool.worker_pids, flush=True)
        """
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    pids = [int(p) for p in out.stdout.split()]
    assert len(pids) == 2
    assert not any(_alive(pid) for pid in pids)
