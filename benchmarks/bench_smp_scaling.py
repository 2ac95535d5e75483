"""Strong scaling of the real shared-memory backend (paper §IV-A).

Runs one heavy-tailed scenario on the :class:`~repro.smp.SmpSimulator`
at 1, 2 and 4 worker processes and reports measured wall-clock speedup
— the repo's first *real* (non-modelled) scaling curve, the executable
counterpart of Figure 12's SMP-mode claim.  Every run is also checked
bit-identical to the sequential reference, so the speedup is certified
to be for the *same* epidemic.

Results go to ``BENCH_smp.json`` at the repo root via
:mod:`benchmarks.emit`.

Runs standalone (the CI smoke step) or under pytest:

    PYTHONPATH=src python benchmarks/bench_smp_scaling.py
    PYTHONPATH=src REPRO_BENCH_TINY=1 python benchmarks/bench_smp_scaling.py

``REPRO_BENCH_TINY=1`` shrinks the population to smoke-test scale.
``REPRO_BENCH_KERNEL`` selects the exposure kernel (flat / grouped /
compiled); the kernel used is recorded in the JSON.

Speedup assertions scale with the machine: at full scale, 2 workers
must beat 1 worker (>1.0x) whenever the machine has >= 2 CPUs — the
regression gate for the "SMP slower than sequential" bug — and 4
workers must reach >= 1.5x on >= 4 CPUs.  One-core runners execute the
same code but time-slice the workers, so only correctness is asserted
there (cpu count is recorded in the JSON either way).
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

from emit import emit_result  # noqa: E402

from repro.core import Scenario, TransmissionModel  # noqa: E402
from repro.core.simulator import SequentialSimulator  # noqa: E402
from repro.smp import SmpSimulator  # noqa: E402
from repro.spec import PopulationSpec  # noqa: E402
from repro.validate.oracle import diff_runs  # noqa: E402

TINY = os.environ.get("REPRO_BENCH_TINY", "") not in ("", "0")

N_PERSONS = 500 if TINY else 20_000
N_LOCATIONS = 80 if TINY else 2_500
N_DAYS = 2 if TINY else 8
REPEATS = 1 if TINY else 2
WORKER_COUNTS = (1, 2, 4)
KERNEL = os.environ.get("REPRO_BENCH_KERNEL") or None
MIN_SPEEDUP_AT_2 = 1.0
MIN_SPEEDUP_AT_4 = 1.5


def _scenario(graph) -> Scenario:
    return Scenario(
        graph=graph, n_days=N_DAYS, seed=5, initial_infections=20,
        transmission=TransmissionModel(2.5e-4),
    )


def main() -> int:
    cpus = os.cpu_count() or 1
    graph = PopulationSpec(
        kind="preset", preset="heavy-tailed", n_persons=N_PERSONS,
        params={"n_locations": N_LOCATIONS},
    ).build()
    print(f"heavy-tailed preset: {graph.n_persons:,} persons, "
          f"{graph.n_visits:,} visits, {N_DAYS} days, {cpus} cpus"
          f"{' [tiny]' if TINY else ''}")

    scenario = _scenario(graph)
    reference = SequentialSimulator(scenario).run()

    walls: dict[str, float] = {}
    ok = True
    for w in WORKER_COUNTS:
        best = float("inf")
        for _ in range(REPEATS):
            out = SmpSimulator(_scenario(graph), n_workers=w, kernel=KERNEL).run()
            best = min(best, out.wall_seconds)
        identical = diff_runs(scenario, reference, out.result, ordered=True) is None
        ok = ok and identical
        walls[f"w{w}"] = best
        print(f"  {w} worker(s): {best * 1e3:8.1f}ms  bit-identical={identical}")

    speedups = {f"w{w}": walls["w1"] / walls[f"w{w}"] for w in WORKER_COUNTS}
    print(f"speedup vs 1 worker: " +
          ", ".join(f"{w}x{speedups[f'w{w}']:.2f}" for w in WORKER_COUNTS))

    path = emit_result(
        "smp",
        params={
            "n_persons": graph.n_persons,
            "n_locations": N_LOCATIONS,
            "n_visits": graph.n_visits,
            "n_days": N_DAYS,
            "repeats": REPEATS,
            "cpu_count": cpus,
            "kernel": KERNEL or "default",
            "tiny": TINY,
        },
        wall_seconds=walls,
        speedup=speedups,
    )
    print(f"wrote {path}")

    if not ok:
        print("FAIL: an smp run diverged from the sequential reference")
        return 1
    if not TINY and cpus >= 2 and speedups["w2"] <= MIN_SPEEDUP_AT_2:
        print(f"FAIL: 2 workers must beat 1 worker on a {cpus}-cpu "
              f"machine, got {speedups['w2']:.2f}x")
        return 1
    if not TINY and cpus >= 4 and speedups["w4"] < MIN_SPEEDUP_AT_4:
        print(f"FAIL: expected >= {MIN_SPEEDUP_AT_4}x at 4 workers on a "
              f"{cpus}-cpu machine, got {speedups['w4']:.2f}x")
        return 1
    if cpus < 2:
        print(f"note: {cpus} cpu(s) — speedup assertions skipped "
              f"(workers are time-sliced), correctness asserted")
    return 0


def test_smp_scaling():
    """Pytest entry point for the same measurement."""
    assert main() == 0


if __name__ == "__main__":
    raise SystemExit(main())
