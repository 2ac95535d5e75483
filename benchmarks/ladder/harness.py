"""The measuring side: run children one at a time, aggregate, verify.

Per workload: one untimed warm-up child at smoke size (builds / loads
the ``ckernel`` .so, fills the page cache), the timed children with
``repro.observe`` off, one ``reference`` child where the workload has a
sequential twin, and — for the per-layer table — one traced child.
End-to-end numbers come only from the timed children.
"""

from __future__ import annotations

import functools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from benchmarks.ladder.workloads import build

__all__ = [
    "ROOT", "LADDER_ONLY", "LADDER_ONLY_WORKLOADS", "contract", "summarize", "spread_pct",
    "measure", "fingerprint",
]

ROOT = Path(__file__).resolve().parents[2]
#: everything a run leaves behind lives here (listed in ``.gitignore``)
WORK = ROOT / ".bench_build" / "ladder"
CHILD_TIMEOUT_S = 150

#: End-to-end metrics the ladder reports beyond the three that
#: ``BENCHMARK.json`` gates.  ``model_s_per_day`` repeats exactly for a
#: seed and exists on one workload, ``failed_share`` is 0 on a healthy
#: run and ``run_spread_pct`` is the benchmark's own noise — none of
#: which fits a contract of never-zero, every-workload, timed metrics —
#: so the contract carries them as ``charm.model_s_per_day`` (per-layer)
#: and as its ``failed`` / ``attempted`` counts instead.
LADDER_ONLY = {
    "model_s_per_day": {"unit": "virtual-s/day", "better": "lower", "bound": 0.01},
    "failed_share": {"unit": "ratio", "better": "lower", "bound": 0.0},
    "run_spread_pct": {"unit": "%", "better": "lower", "bound": None},
}


#: Workloads the ladder runs and ``compare`` gates, but the contract does
#: not list.  Two workers plus the driver on the 2-vCPU reference box
#: follow the host's load: over 30 back-to-back contract runs the median
#: run_s of ten drifted 1.46 -> 1.71 s and their IQR spread was 7-27% —
#: past the largest bound the contract allows (25%), so a driver-side
#: gate on it would fail by itself one time in three.
LADDER_ONLY_WORKLOADS = {
    "smp_dense_w2": "the dense epidemic on the real 2-process shared-memory backend, arena "
                    "build and fork inside run_s: speedup and efficiency against the "
                    "sequential run of the same spec",
}


@functools.cache
def contract() -> dict:
    """``BENCHMARK.json``: the one place metric names, units and bounds
    and the workload list are declared."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def summarize(values: list[float]) -> dict:
    """Median, quartiles, min and n of one timing's samples."""
    q1, _, q3 = (
        statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    )
    return {
        "median": statistics.median(values), "q1": q1, "q3": q3,
        "min": min(values), "n": len(values),
    }


def spread_pct(values: list[float]) -> float | None:
    """IQR / median in percent (None for a single sample)."""
    if len(values) < 2:
        return None
    s = summarize(values)
    return 100.0 * (s["q3"] - s["q1"]) / s["median"]


def _child_env() -> dict:
    """The parent's environment plus the import path of the checkout and
    an in-checkout home for the compiled kernel."""
    return dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(
            [str(ROOT / "src"), str(ROOT), os.environ.get("PYTHONPATH", "")]
        ).rstrip(os.pathsep),
        REPRO_CKERNEL_CACHE=str(WORK / "ckernel"),
    )


def _child(job: dict, env: dict) -> dict:
    """Run one job in a fresh interpreter; raise RuntimeError on any
    failure.  The child leads its own process group so that a timeout
    also takes its forked smp / pool workers down."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "benchmarks.ladder.child", json.dumps(job)],
        cwd=ROOT, env=env, text=True, start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"timed out after {CHILD_TIMEOUT_S}s") from None
    if proc.returncode != 0:
        raise RuntimeError(
            f"exit code {proc.returncode}: " + (err.strip().splitlines() or ["?"])[-1]
        )
    return json.loads(out.splitlines()[-1])


def measure(
    name: str,
    seed: int,
    *,
    smoke: bool = False,
    min_reps: int = 5,
    budget_s: float = 0.0,
    traced: bool = True,
    trace_out: str | None = None,
) -> dict:
    """Measure one workload; returns its result entry.

    Timed children are launched one after another until there are
    ``min_reps`` of them *and* they have measured ``budget_s`` seconds
    of set-up + run between them.  An operation is one timed run (one
    task for ``sweep_small``); it fails if its child raises, times out,
    cannot load the compiled kernel or fails verification.
    """
    wl = build(name, seed, smoke)
    WORK.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    env = _child_env()
    n_children = 0

    def child(mode: str, smoke_size: bool = smoke, **extra) -> dict:
        nonlocal n_children
        scratch = workdir / str(n_children)
        scratch.mkdir()
        n_children += 1
        # memmap backings, sweep caches and stores all stay in here
        env.update(TMPDIR=str(scratch), REPRO_POP_DIR=str(scratch))
        return _child(
            {"workload": name, "seed": seed, "smoke": smoke_size, "mode": mode,
             "workdir": str(scratch), **extra},
            env,
        )

    errors: list[str] = []
    runs: list[dict] = []
    attempted = failed = 0
    ckernel_load_s = 0.0
    per_layer = None
    try:
        try:
            ckernel_load_s = child("timed", smoke_size=True)["ckernel_load_s"]
        except RuntimeError as exc:
            errors.append(f"warm-up: {exc}")

        measured = 0.0
        while attempted < min_reps * wl.n_runs or measured < budget_s:
            attempted += wl.n_runs
            try:
                r = child("timed")
            except RuntimeError as exc:
                failed += wl.n_runs
                errors.append(f"timed run {attempted // wl.n_runs}: {exc}")
                if failed >= min_reps * wl.n_runs:
                    break  # nothing works; do not burn the budget
                continue
            if r["errors"]:
                failed += wl.n_runs
                errors += r["errors"]
            runs.append(r)
            measured += r["setup_s"] + r["run_s"]
        if not runs:
            raise RuntimeError(f"{name}: no timed run succeeded: {errors}")
        if len({r["digest"] for r in runs}) != 1:
            errors.append("repetitions of one (workload, seed) disagree on the result digest")

        reference = None
        if wl.cross_check:
            try:
                reference = child("reference")
            except RuntimeError as exc:
                errors.append(f"reference: {exc}")
            else:
                errors += reference["errors"]
                if reference["curves"] != runs[0]["curves"]:
                    errors.append(
                        "curves differ from the sequential compiled run of the same epidemic"
                    )

        run_s = [r["run_s"] for r in runs]
        run_median = statistics.median(run_s)
        if traced:
            try:
                t = child("traced", trace_out=trace_out)
            except RuntimeError as exc:
                errors.append(f"traced: {exc}")
            else:
                errors += t["errors"]
                if t["digest"] != runs[0]["digest"]:
                    errors.append("tracing changed the result digest")
                per_layer = t["per_layer"]
                per_layer["ckernel.load_s"] = ckernel_load_s
                per_layer["observe.traced_overhead_pct"] = (
                    100.0 * (t["run_s"] - run_median) / run_median
                )
                if reference is not None and wl.spec.runtime.backend == "smp":
                    # n=1 sequential baseline from this same invocation
                    speedup = reference["run_s"] / run_median
                    per_layer["smp.speedup_vs_seq"] = speedup
                    per_layer["smp.efficiency"] = speedup / wl.spec.runtime.workers
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    person_days = runs[0]["n_persons"] * wl.spec.n_days * wl.n_runs
    units = {m["name"]: m["unit"] for m in contract()["end_to_end"]}

    def timed_metric(name: str, values: list[float], value: float | None = None) -> dict:
        stats = summarize(values)
        return {"value": stats["median"] if value is None else value,
                "unit": units[name], "samples": values, **stats}

    end_to_end = {
        # ROADMAP's canonical unit, over the best run (ROADMAP 1d:
        # min-of-N).  What disturbs a run on a shared box only ever adds
        # time, so the fastest repetition is the steadiest estimate of
        # what the code costs: over ten contract runs its IQR spread was
        # 1-12% where that of the median run was 5-16%.
        "person_days_per_s": timed_metric(
            "person_days_per_s", [person_days / s for s in run_s],
            person_days / min(run_s),
        ),
        "setup_s": timed_metric("setup_s", [r["setup_s"] for r in runs]),
        "peak_rss_mb": timed_metric("peak_rss_mb", [r["peak_rss_mb"] for r in runs]),
    }
    model = (per_layer or {}).get("charm.model_s_per_day") or None
    for metric, value in (
        ("model_s_per_day", model),
        ("failed_share", failed / attempted),
        ("run_spread_pct", spread_pct(run_s)),
    ):
        end_to_end[metric] = {"value": value, "unit": LADDER_ONLY[metric]["unit"]}
    return {
        "workload": name,
        "person_days": person_days,
        "attempted": attempted,
        "failed": failed,
        "correct": not errors,
        "errors": errors,
        "digest": runs[0]["digest"],
        "run_s": summarize(run_s),
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }


def fingerprint(seed: int, repeats: int) -> dict:
    """Where and on what a result was taken (one SHA, one box)."""

    def first_line(cmd: list[str], **kw) -> str | None:
        if not shutil.which(cmd[0]):
            return None
        out = subprocess.run(cmd, capture_output=True, text=True, **kw)
        return out.stdout.splitlines()[0] if out.returncode == 0 and out.stdout else None

    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    cc = next(
        (c for c in (os.environ.get("CC"), "cc", "gcc", "clang") if c and shutil.which(c)),
        None,
    )
    # numpy and the kernel are asked about where they are used: in a child
    probe = first_line(
        [sys.executable, "-c",
         "import numpy; from repro.core import ckernel; "
         "print(numpy.__version__, ckernel.available())"],
        env=_child_env(),
    )
    numpy_version, ckernel_available = probe.split() if probe else (None, "False")
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "compiler": first_line([cc, "--version"]) if cc else None,
        "ckernel_available": ckernel_available == "True",
        "git_sha": first_line(["git", "rev-parse", "HEAD"], cwd=ROOT),
        "seed": seed,
        "repeats": repeats,
    }
