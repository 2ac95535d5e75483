"""Scenario differential cells: exact cross-backend/cross-kernel parity.

The named cells the issue pins — {waning, tracing, hospital-cap,
two-variant} × {sequential kernels, smp-w2} — plus a hypothesis sweep
over random scenario compositions on adversarial graphs, checked
against the per-location ``grouped`` reference kernel
(``tests/core/exposure_reference.py``) at the event level.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core import ckernel
from repro.core import day as day_steps
from repro.core.simulator import SequentialSimulator
from repro.validate.oracle import diff_runs, run_scenario_matrix
from tests.core import exposure_reference
from tests.strategies import scenario_compositions

PINNED = ("waning-vaccination", "contact-tracing", "hospital-capacity",
          "two-variant")


def test_pinned_scenario_cells_are_exact():
    report = run_scenario_matrix(
        scenarios=PINNED, workers=(2,), n_days=5, persons=250, seed=0,
    )
    assert report.all_equal, report.format()
    backends = {c.label.split("×")[1] for c in report.cells}
    default = "compiled" if ckernel.available() else "flat"
    assert {f"seq-{default}", "charm-rr", "smp-w2"} <= backends
    assert {c.label.split("×")[0] for c in report.cells} == set(PINNED)
    # The charm cells ran with the invariant checker on.
    assert all(c.checks_passed > 0
               for c in report.cells if c.label.endswith("×charm-rr"))


def test_divergence_reporting_shape():
    report = run_scenario_matrix(
        scenarios=("turnover",), workers=(1,), n_days=2, persons=80,
    )
    assert report.all_equal
    assert "turnover×smp-w1" in [c.label for c in report.cells]
    assert report.format().startswith("scenario differential oracle: ")
    assert "bit-identical" in report.format()


@settings(max_examples=12, deadline=None)
@given(sc=scenario_compositions())
def test_random_composition_kernels_agree(sc):
    """The grouped reference vs the default kernel (compiled where the C
    library loads) on random component stacks over corner graphs."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(day_steps, "compute_infections", exposure_reference.pinned(
            exposure_reference.compute_infections, "grouped"))
        ref = SequentialSimulator(sc, kernel="flat").run()
    got = SequentialSimulator(sc).run()
    divergence = diff_runs(sc, ref, got, ordered=True)
    assert divergence is None, divergence.format()


@settings(max_examples=12, deadline=None)
@given(sc=scenario_compositions())
def test_random_composition_is_deterministic(sc):
    """Rerunning the same drawn composition reproduces the epidemic."""
    sim1 = SequentialSimulator(sc)
    r1 = sim1.run()
    sim2 = SequentialSimulator(sc)
    r2 = sim2.run()
    assert list(r1.curve.new_infections) == list(r2.curve.new_infections)
    assert np.array_equal(sim1.health_state, sim2.health_state)
    assert np.array_equal(sim1.days_remaining, sim2.days_remaining)
