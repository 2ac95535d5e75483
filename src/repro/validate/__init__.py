"""Differential-correctness tooling for the sequential↔parallel guarantee.

The reproduction's load-bearing claim — keyed RNG makes the
chare-parallel runtime bit-identical to the sequential reference under
any data distribution, detector or delivery mode — is machine-checked
here:

* :mod:`repro.validate.oracle` — the differential oracle: one
  :func:`~repro.validate.oracle.diff_runs` of every backend's
  ``SimulationResult`` (infection events, epi-curve, final state)
  against the sequential reference, over the charm, kernel, smp and
  scenario cell lists;
* :mod:`repro.validate.external` — the distribution-level oracle
  comparing seeded ensembles of the sequential reference against the
  independent FastSIR/Dijkstra baselines (``validate --external``),
  the one check that can catch a bug in the reference itself;
* :mod:`repro.validate.invariants` — online invariant checks threaded
  through the parallel runtime (``validate=True``);
* :mod:`repro.validate.golden` — golden-trace capture/replay pinning
  epi-curves and virtual-time phase profiles of reference scenarios.

``python -m repro validate`` drives the oracle from the shell;
``python -m repro validate --refresh-golden`` re-records the traces.

Submodules import lazily so that enabling runtime checks (which only
needs :mod:`invariants`) never drags in the oracle's partitioning
stack.
"""

from repro.validate.invariants import InvariantChecker, InvariantViolation

__all__ = [
    "InvariantChecker",
    "InvariantViolation",
    "diff_runs",
    "run_matrix",
    "run_smp_matrix",
    "run_external_oracle",
    "OracleReport",
    "ExternalOracleReport",
]


def __getattr__(name):
    if name in (
        "diff_runs",
        "run_matrix",
        "run_kernel_differential",
        "run_smp_matrix",
        "run_scenario_matrix",
        "OracleReport",
        "Divergence",
        "CellResult",
    ):
        from repro.validate import oracle

        return getattr(oracle, name)
    if name in (
        "run_external_oracle",
        "ExternalOracleReport",
        "ExternalCellResult",
        "MUTATIONS",
        "EXTERNAL_PRESETS",
    ):
        from repro.validate import external

        return getattr(external, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
