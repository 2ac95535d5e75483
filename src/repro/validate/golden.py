"""Golden-trace capture and replay.

A golden trace pins a named parallel configuration end to end: the
epidemic curve, the final PTTS state histogram, the per-day phase
timings and the total virtual time, snapshotted to
``tests/golden/<name>.json``.  ``tests/validate/test_golden.py``
re-runs each case and compares every leaf with ``==`` — epidemic
integers (the reproducibility guarantee) and virtual-time floats alike:
the runtime is deterministic, and JSON writes a float as its shortest
``repr``, which reads back as the same double.

When an *intentional* change shifts a trace (e.g. a cost-model
recalibration moves the timings), refresh with::

    PYTHONPATH=src python -m repro validate --refresh-golden

and review the JSON diff like any other code change — that diff *is*
the behavioural change being approved.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

__all__ = ["GoldenCase", "GOLDEN_CASES", "golden_dir", "capture", "verify", "refresh_all"]


@dataclass(frozen=True)
class GoldenCase:
    """Specification of one golden configuration."""

    name: str
    state: str
    scale: float
    pop_seed: int
    distribution: str  # "rr" | "gp"
    sync: str
    delivery: str
    n_days: int
    seed: int
    initial_infections: int
    transmissibility: float


#: The recorded configurations: scaled Wyoming (~1k persons, Table I
#: ratios), one graph-partitioned and one round-robin cell, covering
#: both CD and QD and two delivery modes.
GOLDEN_CASES = (
    GoldenCase(
        name="wy-gp-cd-aggregated",
        state="WY", scale=2e-3, pop_seed=5,
        distribution="gp", sync="cd", delivery="aggregated",
        n_days=8, seed=7, initial_infections=10, transmissibility=2.5e-4,
    ),
    GoldenCase(
        name="wy-rr-qd-tram",
        state="WY", scale=2e-3, pop_seed=5,
        distribution="rr", sync="qd", delivery="tram",
        n_days=8, seed=7, initial_infections=10, transmissibility=2.5e-4,
    ),
)


def golden_dir() -> Path:
    """``tests/golden/`` relative to the repo root."""
    return Path(__file__).resolve().parents[3] / "tests" / "golden"


def _run_case(case: GoldenCase):
    from repro.charm.machine import Machine
    from repro.core.parallel import Distribution, ParallelEpiSimdemics
    from repro.core.scenario import Scenario
    from repro.core.transmission import TransmissionModel
    from repro.synthpop import state_population
    from repro.validate.oracle import DEFAULT_MACHINE, _make_partition

    graph = state_population(case.state, scale=case.scale, seed=case.pop_seed)
    scenario = Scenario(
        graph=graph,
        n_days=case.n_days,
        seed=case.seed,
        initial_infections=case.initial_infections,
        transmission=TransmissionModel(case.transmissibility),
    )
    machine = Machine(DEFAULT_MACHINE)
    partition = _make_partition(graph, case.distribution, machine.n_pes)
    sim = ParallelEpiSimdemics(
        scenario,
        DEFAULT_MACHINE,
        Distribution.from_partition(partition, machine),
        sync=case.sync,
        delivery=case.delivery,
    )
    return sim.run()


def capture(case: GoldenCase) -> dict:
    """Run ``case`` and return its trace as a JSON-ready dict."""
    res = _run_case(case)
    curve = res.result.curve
    return {
        "spec": {
            "state": case.state,
            "scale": case.scale,
            "pop_seed": case.pop_seed,
            "distribution": case.distribution,
            "sync": case.sync,
            "delivery": case.delivery,
            "n_days": case.n_days,
            "seed": case.seed,
            "initial_infections": case.initial_infections,
            "transmissibility": case.transmissibility,
        },
        "curve": {
            "new_infections": curve.new_infections,
            "cumulative_infections": curve.cumulative_infections,
            "prevalence": curve.prevalence,
        },
        "final_histogram": res.result.final_histogram,
        "phase_times": [
            {
                "day": p.day,
                "person_phase": p.person_phase,
                "location_phase": p.location_phase,
                "total": p.total,
            }
            for p in res.phase_times
        ],
        "total_virtual_time": res.total_virtual_time,
    }


def _diff(recorded: dict, fresh: dict, path: str = "") -> list[str]:
    """All leaf-level differences between two traces, each leaf
    compared with ``==`` (virtual-time floats too)."""
    diffs: list[str] = []
    if isinstance(recorded, dict) and isinstance(fresh, dict):
        for key in sorted(set(recorded) | set(fresh)):
            here = f"{path}.{key}" if path else key
            if key not in recorded or key not in fresh:
                diffs.append(f"{here}: present on one side only")
            else:
                diffs.extend(_diff(recorded[key], fresh[key], here))
    elif isinstance(recorded, list) and isinstance(fresh, list):
        if len(recorded) != len(fresh):
            diffs.append(f"{path}: length {len(recorded)} vs {len(fresh)}")
        for i, (a, b) in enumerate(zip(recorded, fresh)):
            diffs.extend(_diff(a, b, f"{path}[{i}]"))
    elif recorded != fresh:
        diffs.append(f"{path}: recorded {recorded!r}, fresh {fresh!r}")
    return diffs


def verify(case: GoldenCase, directory: Path | None = None) -> list[str]:
    """Re-run ``case`` and diff against its recorded trace.

    Returns the list of differences (empty = trace holds).  A missing
    trace file is reported as a single difference.
    """
    directory = directory or golden_dir()
    path = directory / f"{case.name}.json"
    if not path.exists():
        return [f"{path} missing — run `repro validate --refresh-golden`"]
    recorded = json.loads(path.read_text())
    return _diff(recorded, capture(case))


def refresh_all(directory: Path | None = None) -> list[Path]:
    """(Re)record every registered golden case; return written paths."""
    directory = directory or golden_dir()
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for case in GOLDEN_CASES:
        path = directory / f"{case.name}.json"
        path.write_text(json.dumps(capture(case), indent=2) + "\n")
        written.append(path)
    return written
