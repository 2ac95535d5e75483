"""Failure handling, resource hygiene, and the integration surfaces.

A worker process dying mid-phase must surface as a clean
:class:`~repro.smp.SmpWorkerError` on the driver — never a hang on the
completion spin loop — and every shared-memory segment must be
unlinked on that path too (the autouse conftest fixture enforces the
latter for every test here).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core import Scenario, TransmissionModel
from repro.smp import SmpSimulator, SmpWorkerError
from repro.smp.worker import FAULT_EXIT_CODE
from repro.synthpop import PopulationConfig, generate_population


@pytest.fixture(scope="module")
def graph():
    return generate_population(PopulationConfig(n_persons=250), 31, name="smp-rob")


def make_scenario(graph, n_days=4):
    return Scenario(
        graph=graph, n_days=n_days, seed=4, initial_infections=6,
        transmission=TransmissionModel(2e-4),
    )


@pytest.mark.parametrize("phase", ["person", "location", "apply"])
def test_worker_crash_raises_not_hangs(graph, phase):
    sim = SmpSimulator(
        make_scenario(graph), n_workers=2,
        _fault={"rank": 1, "day": 0, "phase": phase},
    )
    t0 = time.monotonic()
    with pytest.raises(SmpWorkerError, match=f"exit code {FAULT_EXIT_CODE}"):
        sim.run()
    # The driver detects the death by polling liveness, not by waiting
    # out the phase timeout — seconds, not minutes.
    assert time.monotonic() - t0 < 30.0


def test_crash_on_later_day_after_real_progress(graph):
    with pytest.raises(SmpWorkerError):
        SmpSimulator(
            make_scenario(graph), n_workers=2,
            _fault={"rank": 0, "day": 2, "phase": "location"},
        ).run()


def test_surviving_workers_do_not_deadlock_each_other(graph):
    # With 4 workers and one death, three peers are spinning in
    # wait_closed; the driver's abort flag must break all of them out.
    with pytest.raises(SmpWorkerError):
        SmpSimulator(
            make_scenario(graph), n_workers=4,
            _fault={"rank": 2, "day": 0, "phase": "person"},
        ).run()


def test_bad_arguments_rejected(graph):
    sc = make_scenario(graph)
    with pytest.raises(ValueError, match="n_workers"):
        SmpSimulator(sc, n_workers=0)
    with pytest.raises(ValueError, match="ring_capacity"):
        SmpSimulator(sc, n_workers=2, ring_capacity=8, batch=64)


def test_smp_oracle_matrix_cell():
    from repro.validate import run_smp_matrix

    report = run_smp_matrix(
        workers=(2,), presets=("tiny",), n_days=3, tiny_persons=120
    )
    assert report.all_equal
    assert [c.label for c in report.cells] == ["tiny×w2"]
    assert "exact" in report.cells[0].format()


def test_profile_backend_smp_emits_per_pe_tracks(tmp_path):
    from repro.observe.profile import run_profile

    rep = run_profile("tiny", backend="smp", workers=2, out_dir=tmp_path)
    assert rep.curves_identical
    assert rep.n_pes == 2
    pes = {span.pe for span in rep.observer.virtual_spans}
    assert pes == {0, 1}
    names = {span.name for span in rep.observer.virtual_spans}
    assert "pe.person_phase" in names and "pe.location_phase" in names
    assert (tmp_path / "trace.json").exists()


def test_final_state_arrays_are_copies(graph):
    # The result must stay valid after the arena is unlinked.
    result = SmpSimulator(make_scenario(graph, n_days=2), n_workers=2).run().result
    for final in (result.final_health_state, result.final_days_remaining):
        assert isinstance(final, np.ndarray)
        assert final.base is None or isinstance(final.base, np.ndarray)
        # Touching the data must not fault (segment is gone by now).
        assert final.sum() >= 0
