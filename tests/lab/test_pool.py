"""The warm worker pool and its wire protocol.

Warmness is the point: the fork happens once per pool, and consecutive
``map()`` batches reuse the same processes (pinned here by pid).  The
protocol tests hold the frames to their exact byte formulas, matching
the :mod:`repro.smp.protocol` conventions.
"""

from __future__ import annotations

import json
import os
import signal
import time

import numpy as np
import pytest

from repro import workers
from repro.lab import LabWorkerError, WorkerPool
from repro.lab import protocol as lp
from repro.spec import PopulationSpec, RunSpec


def tiny_spec(seed=0, n_days=2) -> RunSpec:
    return RunSpec(
        population=PopulationSpec(n_persons=120, seed=1, name="pool"),
        n_days=n_days,
        seed=seed,
        initial_infections=4,
    )


def _state(pid: int) -> str:
    with open(f"/proc/{pid}/stat") as f:
        return f.read().rsplit(")", 1)[1].split()[0]


class TestProtocol:
    def test_task_frame_roundtrip_and_size(self):
        spec_json = tiny_spec().to_json()
        frame = lp.encode_task(7, spec_json)
        assert len(frame) == lp.TASK_HEADER_NBYTES + len(spec_json.encode())
        assert lp.decode_task(frame) == (7, spec_json)

    def test_result_frame_roundtrip_and_exact_nbytes(self):
        hist = {"recovered": 3, "susceptible": 117}
        result = lp.TaskResult(
            task_id=9,
            new_infections=np.array([4, 2], dtype=np.int64),
            prevalence=np.array([0.03, 0.05]),
            total_infections=6,
            final_histogram=hist,
            wall_seconds=0.25,
            builds=1,
        )
        frame = lp.encode_result(result)
        hist_nbytes = len(json.dumps(hist, sort_keys=True,
                                     separators=(",", ":")).encode())
        assert len(frame) == lp.result_nbytes(2, hist_nbytes)
        back = lp.decode_result(frame)
        assert back.task_id == 9
        assert back.new_infections.tolist() == [4, 2]
        assert back.prevalence.tolist() == [0.03, 0.05]
        assert back.final_histogram == hist
        assert back.builds == 1

    def test_error_frame_roundtrip(self):
        # A task failure travels in the shared error frame of repro.workers.
        frame = workers.encode_error(3, "ValueError('x')", "trace\nback")
        assert workers.opcode(frame) == workers.OP_ERROR
        assert workers.decode_error(frame) == (3, "ValueError('x')", "trace\nback")
        assert workers.opcode(lp.encode_stop()) == lp.OP_STOP

    def test_opcodes_disjoint_from_smp_protocol(self):
        from repro.smp import protocol as sp

        smp_ops = {getattr(sp, n) for n in dir(sp) if n.startswith("OP_")}
        lab_ops = {lp.OP_TASK, lp.OP_STOP, lp.OP_RESULT}
        assert not (smp_ops & lab_ops)
        assert workers.OP_ERROR not in smp_ops | lab_ops


class TestWorkerPool:
    def test_results_return_in_submission_order(self):
        specs = [tiny_spec(seed=s) for s in range(5)]
        with WorkerPool(2) as pool:
            results = pool.map(specs)
        assert [r.task_id for r in results] == [0, 1, 2, 3, 4]
        # Different seeds really were different runs.
        assert len({tuple(r.new_infections.tolist()) for r in results}) > 1

    def test_workers_stay_warm_across_batches(self):
        with WorkerPool(2) as pool:
            pids_before = pool.worker_pids
            pool.map([tiny_spec(seed=1)])
            pool.map([tiny_spec(seed=2), tiny_spec(seed=3)])
            assert pool.worker_pids == pids_before

    def test_inline_mode_matches_pool_mode(self):
        specs = [tiny_spec(seed=s) for s in range(3)]
        inline_results = WorkerPool(0).map(specs)
        with WorkerPool(2) as pool:
            pooled_results = pool.map(specs)
        for a, b in zip(inline_results, pooled_results):
            assert list(a.new_infections) == list(b.new_infections)
            assert a.final_histogram == b.final_histogram

    def test_task_failure_raises_with_worker_traceback(self):
        bad = tiny_spec()
        bad = bad.__class__.from_dict(
            {**bad.canonical(),
             "population": {"kind": "file", "path": "/nonexistent/pop.d"}}
        )
        with WorkerPool(1) as pool:
            with pytest.raises(LabWorkerError, match="task 0"):
                pool.map([bad])

    def test_worker_survives_a_failed_task(self):
        # An error aborts the map() that contained it, but close() is
        # the only thing that ends a worker — a fresh pool still works.
        with WorkerPool(1) as pool:
            ok = pool.map([tiny_spec(seed=4)])
            assert ok[0].total_infections >= 4

    def test_closed_pool_rejects_map(self):
        pool = WorkerPool(1)
        pool.close()
        pool.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            pool.map([tiny_spec()])

    def test_idle_worker_death_raises_lab_worker_error(self):
        # A worker SIGKILLed between two map() calls is found on the
        # next dispatch: the runtime's error, not a bare BrokenPipeError.
        with WorkerPool(1) as pool:
            pool.map([tiny_spec(seed=1)])
            pid = pool.worker_pids[0]
            os.kill(pid, signal.SIGKILL)
            deadline = time.monotonic() + 10.0
            while _state(pid) != "Z":  # dead, not yet reaped
                assert time.monotonic() < deadline
                time.sleep(0.01)
            with pytest.raises(LabWorkerError, match="exit code -9"):
                pool.map([tiny_spec(seed=2)])

    def test_negative_worker_count_rejected(self):
        with pytest.raises(ValueError):
            WorkerPool(-1)
