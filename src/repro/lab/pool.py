"""Persistent warm worker pool executing RunSpecs (the lab's engine).

The processes, pipes, park and shutdown are :class:`repro.workers.Workers`,
the runtime under :mod:`repro.smp` too; the frames are
:mod:`repro.lab.protocol`.  Where an SMP worker owns a *slice of one
run*, a lab worker owns *whole runs*: it receives a serialised
:class:`~repro.spec.RunSpec`, builds its artifacts through a
process-local :class:`~repro.lab.cache.ArtifactCache` (backed by the
shared on-disk cache directory, so one worker's build is every
worker's hit), executes the run, and streams the result frame back.

Workers stay **warm** across submissions and across whole sweeps: the
fork happens once per pool, the in-memory artifact memos survive from
task to task, and consecutive :meth:`WorkerPool.map` calls reuse the
same processes — exactly the epyc/"run at scale" execution model the
paper's figure families need.

Determinism: results are keyed by task id and re-ordered to submission
order on collection, and the runs themselves are bit-exact regardless
of which worker executes them (keyed RNG), so the pool size can never
leak into sweep output — ``tests/lab/test_sweep_determinism.py`` pins
store bytes across pool sizes 1, 2 and 4.
"""

from __future__ import annotations

import traceback
from pathlib import Path

from repro import observe
from repro.lab import protocol
from repro.lab.cache import ArtifactCache
from repro.spec import RunSpec, execute
from repro.workers import WorkerError, Workers, encode_error, opcode

__all__ = ["WorkerPool", "LabWorkerError"]


class LabWorkerError(WorkerError):
    """A pool worker died or a task raised; the sweep aborted."""


def _run_task(task_id: int, spec: RunSpec, cache: ArtifactCache) -> protocol.TaskResult:
    """Execute one spec into its result frame's fields (pooled or inline)."""
    result = execute(spec, cache=cache)
    return protocol.TaskResult(
        task_id=task_id,
        new_infections=result.new_infections,
        prevalence=result.prevalence,
        total_infections=result.total_infections,
        final_histogram=result.final_histogram,
        wall_seconds=result.wall_seconds,
        builds=result.builds,
    )


def _worker_main(rank: int, conn, cache_dir) -> None:
    """Worker body: one result frame per task frame, until the stop
    frame.  A task failure is *reported* (error frame), not fatal."""
    cache = ArtifactCache(root=cache_dir)
    while True:
        buf = conn.recv_bytes()
        if opcode(buf) == protocol.OP_STOP:
            return
        task_id, spec_json = protocol.decode_task(buf)
        try:
            frame = protocol.encode_result(
                _run_task(task_id, RunSpec.from_json(spec_json), cache)
            )
        except Exception as exc:
            frame = encode_error(task_id, repr(exc), traceback.format_exc())
        conn.send_bytes(frame)


class WorkerPool:
    """``n_workers`` warm processes executing RunSpecs.

    ``n_workers=0`` is the inline mode: tasks execute in the calling
    process against a driver-local cache — no forks, and every cache
    event lands in the *caller's* observe spans (the mode the cache
    tests assert through).

    Use as a context manager, or call :meth:`close` explicitly::

        with WorkerPool(2, cache_dir=".repro-cache") as pool:
            results = pool.map(specs)      # submission order preserved
            more    = pool.map(more_specs) # same warm processes
    """

    def __init__(self, n_workers: int, cache_dir: str | Path | None = None):
        if n_workers < 0:
            raise ValueError("n_workers must be >= 0")
        self.n_workers = n_workers
        self.cache_dir = None if cache_dir is None else Path(cache_dir)
        #: driver-side cache; in inline mode the only cache there is
        self.cache = ArtifactCache(root=self.cache_dir)
        self._workers = Workers(
            n_workers, _worker_main, (self.cache_dir,),
            stop=protocol.encode_stop(), error=LabWorkerError,
        ) if n_workers else None
        self._next_task = 0
        self._closed = False

    # ------------------------------------------------------------------
    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def worker_pids(self) -> list[int]:
        """Live worker process ids (tests pin warmness across batches)."""
        return [] if self._workers is None else self._workers.pids

    # ------------------------------------------------------------------
    def map(self, specs, progress=None) -> list[protocol.TaskResult]:
        """Execute every spec; results return in submission order.

        Tasks are dispatched one per idle worker and backfilled as
        results arrive (no static chunking — a slow grid point cannot
        starve the pool).  ``progress`` receives ``(done, total)``
        after each completion.  A worker's death or a task's exception
        closes the pool and raises :class:`LabWorkerError`.
        """
        specs = list(specs)
        if self._closed:
            raise RuntimeError("pool is closed")
        with observe.span(
            "lab.pool.map", tasks=len(specs), workers=self.n_workers
        ):
            if self._workers is None:
                return self._map_inline(specs, progress)
            try:
                return self._map_pool(specs, progress)
            except WorkerError:
                self.close()
                raise

    def _map_inline(self, specs, progress) -> list[protocol.TaskResult]:
        out = []
        for i, spec in enumerate(specs):
            out.append(_run_task(self._next_task + i, spec, self.cache))
            if progress is not None:
                progress(i + 1, len(specs))
        self._next_task += len(specs)
        return out

    def _map_pool(self, specs, progress) -> list[protocol.TaskResult]:
        base = self._next_task
        self._next_task += len(specs)
        queue = [(base + i, spec.to_json()) for i, spec in enumerate(specs)]
        results: dict[int, protocol.TaskResult] = {}
        idle = list(range(self.n_workers))
        busy: dict[int, int] = {}  # rank -> task id

        def dispatch() -> None:
            while queue and idle:
                (task_id, payload), rank = queue.pop(0), idle.pop(0)
                with observe.span("lab.pool.submit", task=task_id, worker=rank):
                    self._workers.send(rank, protocol.encode_task(task_id, payload), task_id)
                busy[rank] = task_id

        dispatch()
        while busy:
            for rank, buf in self._workers.recv(busy):
                with observe.span("lab.pool.collect", worker=rank):
                    r = protocol.decode_result(buf)
                results[r.task_id] = r
                del busy[rank]
                idle.append(rank)
                if progress is not None:
                    progress(len(results), len(specs))
            dispatch()
        return [results[base + i] for i in range(len(specs))]

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop every worker; idempotent."""
        self._closed = True
        if self._workers is not None:
            self._workers.close()
