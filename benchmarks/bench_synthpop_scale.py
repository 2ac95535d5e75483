"""Benchmark: streaming population generation at paper-like scales.

The paper's Table I runs EpiSimdemics on populations from 0.3M (WY)
through 280M (US) persons; the dense in-RAM generator tops out long
before that on laptop-class machines.  This bench certifies the
streaming path (:func:`repro.synthpop.generate_population_streamed`)
actually delivers bounded-memory generation:

* each scale (1M / 5M / 10M persons) is generated *and*
  block-partitioned in a child process whose **anonymous memory is
  hard-capped** via ``RLIMIT_DATA`` — if generation ever materialises
  O(n_visits) arrays in RAM, the child dies with ``MemoryError`` and
  the bench fails loudly;
* the child reports wall time, peak RSS, and on-disk footprint, from
  which the emitted artifact derives **bytes/person** (the number the
  scaling playbook in ``docs/scaling.md`` accounts for);
* a small-scale cross-check asserts the memmap population is
  *bit-identical* to the in-RAM one — same
  :meth:`~repro.synthpop.PersonLocationGraph.content_hash`, same
  epidemic trajectory through :func:`repro.spec.execute`.

``RLIMIT_DATA`` (not ``RLIMIT_AS``) is the right rlimit: it caps
``brk``/anonymous mappings — the generator's working set — while
leaving the file-backed memmap mappings uncounted, which is exactly
the claim under test.

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_synthpop_scale.py          # full
    REPRO_BENCH_TINY=1 PYTHONPATH=src python benchmarks/bench_synthpop_scale.py

Emits ``BENCH_<name>.json`` (via :mod:`benchmarks.emit`).
"""

from __future__ import annotations

import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, os.path.dirname(__file__))

TINY = os.environ.get("REPRO_BENCH_TINY", "") not in ("", "0")

SCALES = [30_000, 60_000] if TINY else [1_000_000, 5_000_000, 10_000_000]
EQUALITY_PERSONS = 5_000 if TINY else 150_000
#: anonymous-memory cap for each generation child.  The full 10M-person
#: run fits comfortably: the streaming working set is O(n_locations) +
#: one block + ~2 B/person of kept layout, not O(n_visits).
BUDGET_BYTES = 512 * 1024**2 if TINY else 1536 * 1024**2
SEED = 7
PARTITIONS = 16
N_DAYS = 8


# ----------------------------------------------------------------------
def run_child(n_persons: int, budget: int, workdir: str) -> int:
    """Generate + block-partition one scale under an anon-memory cap.

    Prints KEY=VALUE lines for the parent; runs in its own process so
    ``ru_maxrss`` is this scale's peak, not the bench script's.
    """
    resource.setrlimit(resource.RLIMIT_DATA, (budget, budget))

    import numpy as np

    from repro.synthpop import PopulationConfig, generate_population_streamed
    from repro.smp.layout import block_partition

    t0 = time.perf_counter()
    graph = generate_population_streamed(
        PopulationConfig(n_persons=n_persons), SEED,
        backing="memmap", dir=workdir,
    )
    wall_gen = time.perf_counter() - t0

    t0 = time.perf_counter()
    part = block_partition(graph.n_persons, graph.n_locations, PARTITIONS)
    degrees = graph.person_degrees  # chunk-accumulated, never O(n_visits)
    loads = np.bincount(
        part.person_part, weights=degrees, minlength=PARTITIONS
    )
    imbalance = float(loads.max() / max(1.0, loads.mean()))
    wall_part = time.perf_counter() - t0

    backing_dir = Path(graph.backing.dir)
    files = list(backing_dir.glob("*.npy"))
    disk = sum(f.stat().st_size for f in files)
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    print(f"WALL_GEN={wall_gen:.6f}")
    print(f"WALL_PART={wall_part:.6f}")
    print(f"MAXRSS_KB={maxrss_kb}")
    print(f"DISK_BYTES={disk}")
    print(f"VISITS={graph.n_visits}")
    print(f"LOCATIONS={graph.n_locations}")
    print(f"MEMMAP_FILES={len(files)}")
    print(f"IMBALANCE={imbalance:.4f}")
    return 0


def measure_scale(n_persons: int) -> dict:
    with tempfile.TemporaryDirectory(prefix="bench-synthpop-") as workdir:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__),
             "--child", str(n_persons), str(BUDGET_BYTES), workdir],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=str(Path(__file__).resolve().parent.parent),
        )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        raise SystemExit(
            f"scale {n_persons:,}: child failed under "
            f"RLIMIT_DATA={BUDGET_BYTES:,} (see output above)"
        )
    out = {}
    for line in proc.stdout.splitlines():
        key, eq, value = line.partition("=")
        if eq:
            out[key] = value
    needed = {"WALL_GEN", "WALL_PART", "MAXRSS_KB", "DISK_BYTES",
              "VISITS", "LOCATIONS", "MEMMAP_FILES", "IMBALANCE"}
    missing = needed - out.keys()
    if missing:
        raise SystemExit(f"scale {n_persons:,}: child omitted {sorted(missing)}")
    if int(out["MEMMAP_FILES"]) == 0:
        raise SystemExit(f"scale {n_persons:,}: memmap path was not exercised")
    return out


def equality_check() -> dict:
    """RAM and memmap builds of one spec: same bytes, same epidemic."""
    from repro.spec import PopulationSpec, RunSpec, execute

    def spec(backing):
        return PopulationSpec(
            kind="streamed", n_persons=EQUALITY_PERSONS, seed=SEED,
            backing=backing, name=f"bench-eq-{EQUALITY_PERSONS}",
        )

    g_ram = spec("ram").build()
    g_mm = spec("memmap").build()
    hash_equal = g_ram.content_hash() == g_mm.content_hash()
    r_ram = execute(RunSpec(population=spec("ram"), n_days=N_DAYS), graph=g_ram)
    r_mm = execute(RunSpec(population=spec("memmap"), n_days=N_DAYS), graph=g_mm)
    epi_equal = r_ram.record() == r_mm.record()
    spec_equal = spec("ram").content_hash() == spec("memmap").content_hash()
    if not (hash_equal and epi_equal and spec_equal):
        raise SystemExit(
            f"ram/memmap divergence: content_hash_equal={hash_equal} "
            f"epidemic_equal={epi_equal} spec_hash_equal={spec_equal}"
        )
    return {
        "equality_persons": EQUALITY_PERSONS,
        "content_hash_equal": hash_equal,
        "epidemic_equal": epi_equal,
        "spec_hash_equal": spec_equal,
    }


def main() -> int:
    from emit import emit_result

    results = {}
    for n in SCALES:
        print(f"[synthpop-scale] {n:,} persons "
              f"(RLIMIT_DATA {BUDGET_BYTES // 1024**2}MB)...", flush=True)
        results[n] = measure_scale(n)

    print(f"[synthpop-scale] ram/memmap equality at "
          f"{EQUALITY_PERSONS:,} persons...", flush=True)
    eq = equality_check()

    top = max(SCALES)
    r_top = results[top]
    bytes_per_person = int(r_top["DISK_BYTES"]) / top

    params = {
        "tiny": TINY,
        "scales": SCALES,
        "max_persons": top,
        "budget_bytes": BUDGET_BYTES,
        "partitions": PARTITIONS,
        "seed": SEED,
        "bytes_per_person": round(bytes_per_person, 2),
        "memmap_verified": all(
            int(r["MEMMAP_FILES"]) > 0 for r in results.values()
        ),
        **eq,
    }
    wall = {}
    for n, r in results.items():
        label = f"{n // 1000}k" if n < 1_000_000 else f"{n // 1_000_000}m"
        wall[f"gen_{label}"] = float(r["WALL_GEN"])
        wall[f"part_{label}"] = float(r["WALL_PART"])
        params[f"maxrss_mb_{label}"] = int(r["MAXRSS_KB"]) // 1024
        params[f"disk_mb_{label}"] = int(r["DISK_BYTES"]) // 1024**2
        params[f"visits_{label}"] = int(r["VISITS"])
        params[f"locations_{label}"] = int(r["LOCATIONS"])
        params[f"imbalance_{label}"] = float(r["IMBALANCE"])

    top_label = f"{top // 1000}k" if top < 1_000_000 else f"{top // 1_000_000}m"
    speedup = {
        "persons_per_second": top / wall[f"gen_{top_label}"],
    }
    path = emit_result("synthpop_scale", params, wall, speedup)
    print(f"wrote {path}")
    for n, r in results.items():
        print(f"  {n:>12,} persons: gen {float(r['WALL_GEN']):7.2f}s  "
              f"part {float(r['WALL_PART']):6.2f}s  "
              f"rss {int(r['MAXRSS_KB']) // 1024:5d}MB  "
              f"disk {int(r['DISK_BYTES']) // 1024**2:5d}MB")
    print(f"  bytes/person at {top:,}: {bytes_per_person:.1f}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) > 1 and sys.argv[1] == "--child":
        sys.exit(run_child(int(sys.argv[2]), int(sys.argv[3]), sys.argv[4]))
    sys.exit(main())
