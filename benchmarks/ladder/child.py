"""One measurement in a fresh process: ``python -m benchmarks.ladder.child JOB``.

``JOB`` is a JSON object ``{workload, seed, smoke, mode, workdir,
trace_out}``; the answer is one JSON object on the last line of stdout.
A fresh process per measurement gives a clean ``ru_maxrss`` and no warm
state carried from one repetition into the next.

Modes
-----
``timed``      set-up, then the run, with ``repro.observe`` off.
``traced``     the same under ``observe.observing()`` with the layer
               shims installed; also returns the per-layer metrics.
``reference``  the workload's sequential ``compiled`` twin on the same
               (possibly splitLoc-rewritten) graph, for the cross-check.

``setup_s`` is the cold build of every artifact the lab would cache
(``ArtifactCache.population`` + ``.partition``); ``run_s`` is
``execute(spec, cache=cache)`` with ``builds == 0`` checked — so
``from_spec``, smp arena build + fork, simulate and result assembly are
all inside ``run_s``, and work moved into set-up shows in ``setup_s``.
For ``sweep_small``, ``setup_s`` is the cold fill of the on-disk cache
from the driver (cache *write*) and ``run_s`` the warm sweep (cache
*read*, pool dispatch, store write).
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from contextlib import ExitStack
from pathlib import Path

from repro import observe
from repro.lab import ArtifactCache, ResultStore, run_sweep
from repro.spec import content_hash, execute

from benchmarks.ladder import layers
from benchmarks.ladder.workloads import build

__all__ = ["verify_record", "curves_digest", "run_job"]


def curves_digest(record: dict) -> str:
    """Digest of what every backend and kernel must agree on."""
    return content_hash(
        {k: record[k] for k in ("new_infections", "prevalence", "final_histogram")}
    )


def verify_record(record: dict, n_persons: int, n_days: int) -> list[str]:
    """Internal consistency of one run's record; returns the violations.

    No pinned digests: a versioned RNG contract may legitimately change
    the trajectory, never these identities.
    """
    errors = []
    if len(record["new_infections"]) != n_days:
        errors.append(f"{len(record['new_infections'])} days recorded, expected {n_days}")
    if sum(record["new_infections"]) != record["total_infections"]:
        errors.append(
            f"sum(new_infections)={sum(record['new_infections'])} != "
            f"total_infections={record['total_infections']}"
        )
    if sum(record["final_histogram"].values()) != n_persons:
        errors.append(
            f"final_histogram sums to {sum(record['final_histogram'].values())}, "
            f"expected {n_persons} persons"
        )
    return errors


def _peak_rss_mb() -> float:
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def _load_compiled(spec) -> float:
    """Seconds to build-or-load the C kernel (0 when the spec does not
    use it).  A silent fall-back to a numpy kernel would time a
    different program, so an unavailable kernel fails the run."""
    if spec.runtime.kernel != "compiled":
        return 0.0
    from repro.core import ckernel

    t0 = time.perf_counter()
    if not ckernel.available():
        raise RuntimeError(f"compiled kernel unavailable: {ckernel.build_error()}")
    return time.perf_counter() - t0


def _run_spec(wl, mode: str):
    """``(answer, graph, partition, None)`` for a single-run workload."""
    spec = wl.spec
    cache = ArtifactCache()
    t0 = time.perf_counter()
    graph = cache.population(spec.population)
    pspec = spec.resolved_partition()
    partition = None
    if pspec is not None:
        graph, partition = cache.partition(spec.population, pspec, graph)
    t1 = time.perf_counter()
    if mode == "reference":
        result = execute(wl.reference_spec, graph=graph)
    else:
        result = execute(spec, cache=cache)
    t2 = time.perf_counter()
    record = result.record()
    errors = verify_record(record, graph.n_persons, spec.n_days)
    if result.builds:
        errors.append(f"run built {result.builds} artifact(s) that set-up should have cached")
    return {
        "setup_s": t1 - t0,
        "run_s": t2 - t1,
        "n_persons": graph.n_persons,
        "digest": content_hash(record),
        "curves": curves_digest(record),
        "errors": errors,
    }, graph, partition, None


def _run_sweep(wl, mode: str, workdir: Path):
    """``(answer, graph, None, lab metrics when traced)`` for the sweep."""
    cfg = wl.sweep
    cache_dir, store_dir = workdir / "cache", workdir / "store"
    t0 = time.perf_counter()
    graph = ArtifactCache(root=cache_dir).population(cfg.base.population)
    t1 = time.perf_counter()
    report = run_sweep(cfg, workers=2, store_dir=store_dir, cache_dir=cache_dir)
    t2 = time.perf_counter()
    store = ResultStore(store_dir)
    records = store.records()
    errors = []
    if len(records) != cfg.n_runs:
        errors.append(f"store holds {len(records)} records, expected {cfg.n_runs}")
    for r in records:
        errors += [
            f"record {r['index']}: {e}"
            for e in verify_record(r, graph.n_persons, cfg.base.n_days)
        ]
    if report.builds:
        errors.append(f"warm sweep built {report.builds} artifact(s)")
    out = {
        "setup_s": t1 - t0,
        "run_s": t2 - t1,
        "n_persons": graph.n_persons,
        "digest": hashlib.blake2b(
            store.results_path.read_bytes(), digest_size=16
        ).hexdigest(),
        "errors": errors,
    }
    lab = None
    if mode == "traced":
        # The same sweep against an empty cache: what the cold path
        # costs on top, and how many builds one population key takes.
        cold = run_sweep(cfg, workers=2, cache_dir=workdir / "cache_cold")
        lab = {
            "lab.runs_per_min": report.runs_per_min,
            "lab.task_mean_s": report.task_wall_seconds / report.n_runs,
            "lab.pool_overhead_s":
                report.wall_seconds - report.task_wall_seconds / report.workers,
            "lab.cache_hit_rate": report.cache_hit_rate,
            "lab.builds": cold.builds,
            "lab.cold_minus_warm_s": cold.wall_seconds - report.wall_seconds,
            "lab.store_bytes":
                store.results_path.stat().st_size + store.manifest_path.stat().st_size,
        }
    return out, graph, None, lab


def run_job(job: dict) -> dict:
    wl = build(job["workload"], job["seed"], job["smoke"])
    mode = job["mode"]
    load_s = _load_compiled(wl.reference_spec if mode == "reference" else wl.spec)
    tally = layers.Tally()
    with ExitStack() as stack:
        obs = None
        if mode == "traced":
            stack.enter_context(layers.installed(tally))
            obs = stack.enter_context(observe.observing())
        if wl.sweep is not None:
            out, graph, partition, lab = _run_sweep(wl, mode, Path(job["workdir"]))
        else:
            out, graph, partition, lab = _run_spec(wl, mode)
    out["peak_rss_mb"] = _peak_rss_mb()
    out["ckernel_load_s"] = load_s
    if obs is not None:
        out["per_layer"] = layers.derive(
            obs, tally, run_s=out["run_s"], n_days=wl.spec.n_days,
            graph=graph, partition=partition, sweep=lab,
        )
        if job.get("trace_out"):
            observe.write_chrome_trace(obs, job["trace_out"])
    return out


if __name__ == "__main__":
    print(json.dumps(run_job(json.loads(sys.argv[1]))))
