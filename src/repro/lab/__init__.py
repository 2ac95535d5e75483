"""repro.lab — sweep/replication orchestration over the RunSpec layer.

The "experiment lab" ROADMAP item 3 asked for: an epyc-style engine
that expands parameter grids × N seeded replications into
:class:`~repro.spec.RunSpec` tasks, executes them asynchronously over a
persistent warm worker pool (:mod:`repro.workers` processes,
struct-packed pipe frames), with

* a **content-addressed artifact cache**
  (:class:`~repro.lab.cache.ArtifactCache`): populations and
  partitions keyed by the BLAKE2b hash of their generating sub-spec —
  the same graph is never built twice, within or across sweeps;
* a **structured append-only result store**
  (:class:`~repro.lab.store.ResultStore`): canonical-JSONL records in
  task order plus a manifest, byte-identical at any pool size;
* full :mod:`repro.observe` coverage — ``lab.sweep`` / ``lab.expand``
  / ``lab.pool.submit`` / ``lab.pop_build`` / ``lab.collect`` spans
  make a sweep profileable end to end.

Driven from the shell by ``repro sweep`` / ``repro results``; measured
by ``benchmarks/bench_sweep.py`` (``BENCH_sweep.json``).

Usage::

    from repro.lab import SweepConfig, run_sweep
    from repro.spec import PopulationSpec, RunSpec

    cfg = SweepConfig(
        base=RunSpec(population=PopulationSpec(n_persons=2000), n_days=30),
        grid={"transmissibility": [1e-4, 2e-4, 4e-4]},
        replications=10,
    )
    report = run_sweep(cfg, workers=4, store_dir="sweeps/r0",
                       cache_dir=".repro-cache")
    print(report.format())
"""

from repro.lab.cache import ArtifactCache, CacheStats
from repro.lab.pool import LabWorkerError, WorkerPool
from repro.lab.store import ResultStore
from repro.lab.sweep import (
    ReplayResult,
    SweepConfig,
    SweepReport,
    SweepTask,
    expand,
    replay,
    run_sweep,
    spec_with,
)

__all__ = [
    "ArtifactCache",
    "CacheStats",
    "WorkerPool",
    "LabWorkerError",
    "ResultStore",
    "SweepConfig",
    "SweepTask",
    "SweepReport",
    "ReplayResult",
    "expand",
    "spec_with",
    "run_sweep",
    "replay",
]
