"""Exposure-kernel rewrite — grouped (reference) vs flat (batched).

The flat kernel replaces the per-location ``np.split`` Python loop and
the per-person keyed ``Generator`` constructions with one global
blocked pass and a single batched keyed-uniform draw.  This bench
times both kernels on a heavy-tailed synthetic population — the
splitLoc-motivating regime where one location absorbs a large share of
all visits and the grouped kernel's per-location overhead hurts most —
and asserts (i) the two kernels produce bit-identical infection
events and (ii) the flat kernel is at least 5× faster at default scale.

Runs standalone (the CI smoke step) or under pytest:

    PYTHONPATH=src python benchmarks/bench_exposure_kernel.py
    PYTHONPATH=src REPRO_BENCH_TINY=1 python benchmarks/bench_exposure_kernel.py

``REPRO_BENCH_TINY=1`` shrinks the population to smoke-test scale and
skips the speedup assertion (shared CI runners make timing ratios
unreliable at sub-millisecond kernel times); correctness is still
asserted exactly.
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.dirname(__file__))

from emit import emit_result  # noqa: E402

from repro.core import Scenario, TransmissionModel  # noqa: E402
from repro.core.exposure import KERNELS, compute_infections  # noqa: E402
from repro.spec import PopulationSpec  # noqa: E402
from repro.synthpop.graph import PersonLocationGraph  # noqa: E402
from repro.util.rng import RngFactory  # noqa: E402

TINY = os.environ.get("REPRO_BENCH_TINY", "") not in ("", "0")

#: Default preset: ~8k persons, ~24k visits, Zipf-distributed location
#: popularity so the top location sees thousands of co-present visits.
N_PERSONS = 400 if TINY else 8_000
N_LOCATIONS = 60 if TINY else 1_200
VISITS_PER_PERSON = 3
N_DAYS = 2 if TINY else 4
REPEATS = 1 if TINY else 3
MIN_SPEEDUP = 5.0


def build_heavy_tailed_graph(
    n_persons: int = N_PERSONS,
    n_locations: int = N_LOCATIONS,
    seed: int = 7,
) -> PersonLocationGraph:
    """Synthetic population with Zipf(1.4) location popularity.

    Built through :class:`repro.spec.PopulationSpec` — the one shared
    preset path (smp scaling bench, differential oracle, lab cache);
    this wrapper keeps the bench's historical entry point and sizes.
    """
    return PopulationSpec(
        kind="preset", preset="heavy-tailed", n_persons=n_persons, seed=seed,
        params={"n_locations": n_locations,
                "visits_per_person": VISITS_PER_PERSON},
    ).build()


def _phase_state(graph, seed=3, infected_frac=0.08):
    sc = Scenario(
        graph=graph, seed=seed, initial_infections=0,
        transmission=TransmissionModel(3e-4),
    )
    d = sc.disease
    state, _ = d.initial_health(graph.n_persons)
    rng = np.random.default_rng(seed)
    sick = rng.choice(graph.n_persons, int(graph.n_persons * infected_frac), replace=False)
    state[sick] = int(np.flatnonzero(d.is_infectious)[0])
    return sc, state


def time_kernel(kernel: str, graph, sc, state) -> tuple[float, list]:
    """Best-of-REPEATS wall time for N_DAYS location phases."""
    f = RngFactory(sc.seed)
    best = float("inf")
    infections = None
    for _ in range(REPEATS):
        events = []
        t0 = time.perf_counter()
        for day in range(N_DAYS):
            res = compute_infections(
                graph, state, sc.disease, sc.transmission, day, f,
                kernel=kernel,
            )
            events.extend((day, e.person, e.location, e.minute) for e in res.infections)
        best = min(best, time.perf_counter() - t0)
        infections = events
    return best, infections


def main() -> int:
    graph = build_heavy_tailed_graph()
    sc, state = _phase_state(graph)
    top = int(np.bincount(graph.visit_location, minlength=graph.n_locations).max())
    print(f"heavy-tailed preset: {graph.n_persons:,} persons, "
          f"{graph.n_visits:,} visits, {graph.n_locations:,} locations "
          f"(top location: {top:,} visits){' [tiny]' if TINY else ''}")
    print(f"{N_DAYS} location phases per run, best of {REPEATS}")
    print()

    times, results = {}, {}
    for kernel in KERNELS:
        times[kernel], results[kernel] = time_kernel(kernel, graph, sc, state)

    speedup = times["grouped"] / times["flat"] if times["flat"] > 0 else float("inf")
    print(f"{'kernel':>9} {'time':>10} {'infections':>11}")
    for kernel in KERNELS:
        print(f"{kernel:>9} {times[kernel] * 1e3:>8.1f}ms {len(results[kernel]):>11}")
    print()
    print(f"speedup (grouped/flat): {speedup:.1f}x")

    path = emit_result(
        "exposure_kernel",
        params={
            "n_persons": graph.n_persons,
            "n_locations": graph.n_locations,
            "n_visits": graph.n_visits,
            "n_days": N_DAYS,
            "repeats": REPEATS,
            "tiny": TINY,
        },
        wall_seconds={k: times[k] for k in KERNELS},
        speedup={"flat_vs_grouped": speedup},
    )
    print(f"wrote {path}")

    if results["flat"] != results["grouped"]:
        print("FAIL: kernels disagree on infection events")
        return 1
    print("oracle: infection events bit-identical across kernels")
    if not TINY and speedup < MIN_SPEEDUP:
        print(f"FAIL: expected >= {MIN_SPEEDUP}x speedup, got {speedup:.1f}x")
        return 1
    return 0


def test_flat_kernel_speedup():
    """Pytest entry point for the same measurement."""
    assert main() == 0


if __name__ == "__main__":
    raise SystemExit(main())
