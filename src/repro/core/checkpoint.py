"""Checkpoint/restart for long simulation campaigns.

The paper's operational context — 24-hour decision cycles over 120–180
simulated days — makes restartability a practical requirement (a
preempted job must not redo a week of compute).  Because all randomness
is keyed by ``(day, entity)``, resuming from a checkpoint reproduces
the uninterrupted run *exactly*; the tests assert bit-equality.

The checkpoint captures the :class:`~repro.core.day.EpidemicState`
(the PTTS arrays and the epidemic bookkeeping), the curve so far
(``sim.result.curve``: every day stepped, whoever stepped it), and
the declared mutable state of every intervention and model component
(via ``checkpoint_state`` / ``restore_state`` on
:class:`~repro.core.interventions.Intervention`): trigger state in the
JSON header, array-valued state — contact-tracing rosters, quarantine
clocks — as first-class npz arrays.  A restored simulator finishes
through :meth:`~repro.core.simulator.SequentialSimulator.run`, the one
sequential day loop; :func:`run_with_checkpointing` only decides where
it stops to save.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.core.day import EpidemicState
from repro.core.scenario import Scenario
from repro.core.simulator import SequentialSimulator, SimulationResult

__all__ = ["save_checkpoint", "load_checkpoint"]

_FORMAT_VERSION = 1


def _component_states(scenario: Scenario) -> tuple[list[dict], dict]:
    """Declared state of every scheduled component, split into the
    JSON-safe header entries and the npz arrays (referenced from the
    header by ``{"__array__": <npz key>}`` markers)."""
    header_states: list[dict] = []
    arrays: dict[str, np.ndarray] = {}
    for i, state in enumerate(scenario.interventions.checkpoint_state()):
        entry: dict = {}
        for key, value in state.items():
            if isinstance(value, np.ndarray):
                akey = f"comp{i}_{key}"
                arrays[akey] = value
                entry[key] = {"__array__": akey}
            else:
                entry[key] = value
        header_states.append(entry)
    return header_states, arrays


def _restore_component_states(
    scenario: Scenario, states: list[dict], data
) -> None:
    resolved = []
    for entry in states:
        state: dict = {}
        for key, value in entry.items():
            if isinstance(value, dict) and "__array__" in value:
                state[key] = np.array(data[value["__array__"]])
            else:
                state[key] = value
        resolved.append(state)
    scenario.interventions.restore_state(resolved)


def save_checkpoint(sim: SequentialSimulator, path: str | Path) -> None:
    """Write the simulator's full state to ``path`` (npz)."""
    path = Path(path)
    curve_arrays = sim.result.curve.as_arrays()
    states, state_arrays = _component_states(sim.scenario)
    header = {
        "format_version": _FORMAT_VERSION,
        "day": sim.day,
        "seeded": sim.state.seeded,
        "scenario_seed": sim.scenario.seed,
        "n_persons": sim.scenario.graph.n_persons,
        "graph_name": sim.scenario.graph.name,
        "interventions": states,
    }
    np.savez_compressed(
        path,
        header=np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8),
        **{name: getattr(sim.state, name) for name in EpidemicState.ARRAYS},
        curve_new=curve_arrays["new_infections"],
        curve_prev=curve_arrays["prevalence"],
        **state_arrays,
    )


def load_checkpoint(scenario: Scenario, path: str | Path) -> SequentialSimulator:
    """Reconstruct a simulator mid-run from a checkpoint.

    ``scenario`` must be a *fresh* scenario equal to the one that
    produced the checkpoint (same graph, seed and interventions); basic
    identity checks guard against mixups.
    """
    path = Path(path)
    with np.load(path, allow_pickle=False) as data:
        header = json.loads(bytes(data["header"].tobytes()).decode("utf-8"))
        if header.get("format_version") != _FORMAT_VERSION:
            raise ValueError("unsupported checkpoint format")
        if header["scenario_seed"] != scenario.seed:
            raise ValueError(
                f"checkpoint was recorded with seed {header['scenario_seed']}, "
                f"scenario has seed {scenario.seed}"
            )
        if header["n_persons"] != scenario.graph.n_persons:
            raise ValueError("checkpoint population size does not match the graph")
        sim = SequentialSimulator(scenario)
        for name in EpidemicState.ARRAYS:
            getattr(sim.state, name)[:] = data[name]
        sim.state.seeded = bool(header["seeded"])
        sim.day = int(header["day"])
        _restore_component_states(scenario, header["interventions"], data)
        for n, p in zip(data["curve_new"].tolist(), data["curve_prev"].tolist()):
            sim.result.curve.record_day(int(n), float(p))
    return sim


def run_with_checkpointing(
    scenario: Scenario,
    checkpoint_path: str | Path,
    checkpoint_every: int = 30,
    resume: bool = True,
) -> SimulationResult:
    """Run a scenario to completion, checkpointing every
    ``checkpoint_every`` days (never at the horizon).

    If ``resume`` and a checkpoint exists, continues from it.  Returns
    the simulator's :class:`~repro.core.simulator.SimulationResult`:
    ``curve``, ``final_histogram``, ``final_health_state`` and
    ``final_days_remaining`` equal an uninterrupted run's; ``days`` and
    ``infection_log`` hold only the days this call ran (after a resume,
    those past the checkpoint), and the location statistics are not
    collected.
    """
    checkpoint_path = Path(checkpoint_path)
    if resume and checkpoint_path.exists():
        sim = load_checkpoint(scenario, checkpoint_path)
    else:
        sim = SequentialSimulator(scenario)
    while True:
        result = sim.run(until=(sim.day // checkpoint_every + 1) * checkpoint_every)
        if sim.day >= scenario.n_days:
            return result
        save_checkpoint(sim, checkpoint_path)
