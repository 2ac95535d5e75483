"""Failure handling, resource hygiene, and the integration surfaces.

A worker process dying mid-phase must surface as a clean
:class:`~repro.smp.SmpWorkerError` on the driver — never a hang on the
completion spin loop — and every shared-memory segment must be
unlinked on that path too (the autouse conftest fixture enforces the
latter for every test here).  A driver SIGKILLed mid-day leaves no
worker and no segment behind either.
"""

from __future__ import annotations

import glob
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import Scenario, TransmissionModel
from repro.smp import SmpSimulator, SmpWorkerError, block_partition
from repro.smp.shm import SEGMENT_PREFIX
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
    # the person -> location barrier carries no records: a peer dying
    # before or after it is reported, with its rank and day, all the same
    with pytest.raises(
        SmpWorkerError, match=f"worker 1 died on day 0 \\(exit code {FAULT_EXIT_CODE}\\)"
    ):
        sim.run()
    # The dead worker's process sentinel wakes the driver's park; it
    # does not wait out the phase timeout — seconds, not minutes.
    assert time.monotonic() - t0 < 30.0


def test_crash_on_later_day_after_real_progress(graph):
    with pytest.raises(SmpWorkerError):
        SmpSimulator(
            make_scenario(graph), n_workers=2,
            _fault={"rank": 0, "day": 2, "phase": "location"},
        ).run()


def test_surviving_workers_do_not_deadlock_each_other(graph):
    # With 4 workers and one death, three peers are spinning in
    # a barrier wait; the driver's abort flag must break all of them out.
    with pytest.raises(SmpWorkerError):
        SmpSimulator(
            make_scenario(graph), n_workers=4,
            _fault={"rank": 2, "day": 0, "phase": "person"},
        ).run()


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def test_sigkilled_driver_leaves_no_worker_and_no_segment(tmp_path):
    """SIGKILL the driver mid-day: within a bounded time its workers are
    gone and so is every segment of its arena."""
    script = textwrap.dedent(
        f"""
        import os, time
        from repro.core import Scenario, TransmissionModel, day
        from repro.smp import SmpSimulator
        from repro.synthpop import PopulationConfig, generate_population

        location_phase = day.location_phase

        def marked(state, scenario, d, *args, **kw):
            if d == 1:  # tell the test this worker is inside day 1
                open(os.path.join({str(tmp_path)!r}, str(os.getpid())), "w").close()
                time.sleep(0.5)
            return location_phase(state, scenario, d, *args, **kw)

        day.location_phase = marked
        graph = generate_population(PopulationConfig(n_persons=250), 31, name="smp-kill")
        SmpSimulator(Scenario(graph=graph, n_days=50, seed=4, initial_infections=6,
                              transmission=TransmissionModel(2e-4)), n_workers=2).run()
        """
    )
    src = Path(__file__).resolve().parents[2] / "src"
    driver = subprocess.Popen(
        [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=str(src)),
        stderr=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + 60.0
    while len(list(tmp_path.iterdir())) < 2 and driver.poll() is None:
        assert time.monotonic() < deadline, "the run never reached day 1"
        time.sleep(0.01)
    workers = [int(p.name) for p in tmp_path.iterdir()]
    segments = f"/dev/shm/{SEGMENT_PREFIX}-{driver.pid}-*"
    assert len(workers) == 2 and glob.glob(segments)
    os.kill(driver.pid, signal.SIGKILL)
    driver.wait()
    deadline = time.monotonic() + 30.0
    try:
        while any(map(_alive, workers)) or glob.glob(segments):
            assert time.monotonic() < deadline, (
                f"alive: {[p for p in workers if _alive(p)]}, segments: {glob.glob(segments)}"
            )
            time.sleep(0.05)
    finally:  # leave no orphan behind a failure
        for pid in filter(_alive, workers):
            os.kill(pid, signal.SIGKILL)


def test_bad_arguments_rejected(graph):
    sc = make_scenario(graph)
    with pytest.raises(ValueError, match="n_workers"):
        SmpSimulator(sc, n_workers=0)
    with pytest.raises(ValueError, match="k=2 but n_workers=3"):
        SmpSimulator(sc, n_workers=3, partition=block_partition(
            graph.n_persons, graph.n_locations, 2))


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
