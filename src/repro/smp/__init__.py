"""``repro.smp`` — the real shared-memory multi-process backend.

The paper's Section IV-A SMP mode made executable: where
:mod:`repro.core.parallel` *models* the chare runtime (virtual time,
cost models), this package *runs* it — worker OS processes as PEs over
``multiprocessing.shared_memory`` state.  As PEs of one SMP node pass
pointers rather than copies, the workers pass no messages inside a
day: each writes its infect records into its own shared segment, and
one lock-free counter barrier per phase boundary publishes them.  The
keyed RNG makes the result bit-identical to the sequential reference,
so the two runtimes (simulated and real) validate each other through
the differential oracle.

Entry points:

* :class:`~repro.smp.backend.SmpSimulator` — run a scenario on N
  worker processes (``SmpSimulator(sc, n_workers=4).run()``);
* ``RuntimeSpec(backend="smp")`` through :func:`repro.spec.execute` /
  ``repro run --backend smp --workers N`` — the integrated surfaces;
* :func:`~repro.validate.oracle.run_smp_matrix` — the oracle's smp
  cells: each run's :class:`~repro.core.simulator.SimulationResult`
  diffed against :class:`~repro.core.simulator.SequentialSimulator`'s
  by :func:`~repro.validate.oracle.diff_runs`;
* ``benchmarks/bench_smp_scaling.py`` — strong-scaling measurements
  (writes ``BENCH_smp.json``).
"""

from repro.smp.backend import SmpResult, SmpSimulator, SmpWorkerError
from repro.smp.completion import CounterBarrier, PhaseTimeout
from repro.smp.layout import RecordSegments, block_partition, build_shared_state
from repro.smp.presets import heavy_tailed_graph
from repro.smp.shm import SharedArena

__all__ = [
    "SmpSimulator",
    "SmpResult",
    "SmpWorkerError",
    "CounterBarrier",
    "PhaseTimeout",
    "RecordSegments",
    "block_partition",
    "build_shared_state",
    "heavy_tailed_graph",
    "SharedArena",
]
