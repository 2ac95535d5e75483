"""The differential oracle: sequential reference vs parallel runtime.

One scenario is run through the sequential simulator and through the
chare-parallel runtime across the full configuration matrix

    {RR, GP, GP-splitLoc} × {completion, quiescence} × {direct,
    aggregated, TRAM}

and every cell is checked for *exact* equality of

* the per-day infection events (``(person, location)`` sets, taken from
  the parallel run's :class:`~repro.validate.invariants.InvariantChecker`
  log and the sequential run's location-phase results),
* the epidemic curve (new infections, cumulative count, prevalence),
* the final state (per-person PTTS state, dwell timers and the state
  histogram).

A mismatch produces a structured :class:`Divergence` naming the first
divergent day, the offending location/person and the transmission RNG
key involved — the information needed to bisect a keyed-RNG regression.

The splitLoc distribution transforms the graph, so its cells are
compared against a sequential reference run on the *split* graph (the
split is a preprocessing step; equivalence is claimed per graph, and
``tests/partition/test_splitloc.py`` separately pins the split's own
semantics).

The matrix is also the certification harness for the exposure-kernel
rewrite: by default the sequential reference runs the ``grouped``
(reference) kernel while every parallel cell runs the ``flat`` kernel,
so one green matrix certifies old-vs-new *and* sequential-vs-parallel
at once.  :func:`run_kernel_differential` additionally compares the two
kernels head-to-head on the sequential simulator, down to the infection
minute and event order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.charm.machine import Machine, MachineConfig
from repro.core.parallel import Distribution, ParallelEpiSimdemics
from repro.core.scenario import Scenario
from repro.core.simulator import SequentialSimulator, SimulationResult
from repro.util.rng import RngFactory

__all__ = [
    "DISTRIBUTIONS",
    "SYNC_MODES",
    "DELIVERY_MODES",
    "SMP_PRESETS",
    "Divergence",
    "CellResult",
    "OracleReport",
    "KernelDiffReport",
    "SmpCellResult",
    "SmpOracleReport",
    "ScenarioCellResult",
    "ScenarioOracleReport",
    "sequential_reference",
    "run_cell",
    "run_matrix",
    "run_kernel_differential",
    "run_smp_matrix",
    "run_scenario_matrix",
]

DISTRIBUTIONS = ("rr", "gp", "gp-split")
SYNC_MODES = ("cd", "qd")
DELIVERY_MODES = ("direct", "aggregated", "tram")

#: Matrix-wide default machine: 2 SMP nodes, 8 PEs — small enough for
#: CI, large enough that every protocol (tree collectives, comm
#: threads, inter-node wires) actually runs.
DEFAULT_MACHINE = MachineConfig(n_nodes=2, cores_per_node=4, smp=True, processes_per_node=1)


@dataclass(frozen=True)
class Divergence:
    """Structured description of the first sequential↔parallel mismatch."""

    kind: str  # "events" | "curve" | "final-state"
    day: int | None = None
    location: int | None = None
    person: int | None = None
    #: derived seed of the transmission stream involved (events only)
    rng_key: int | None = None
    detail: str = ""

    def format(self) -> str:
        parts = [f"first divergence: {self.kind}"]
        if self.day is not None:
            parts.append(f"day {self.day}")
        if self.location is not None:
            parts.append(f"location {self.location}")
        if self.person is not None:
            parts.append(f"person {self.person}")
        if self.rng_key is not None:
            parts.append(f"rng key 0x{self.rng_key:016x}")
        head = ", ".join(parts)
        return f"{head}\n  {self.detail}" if self.detail else head


@dataclass
class CellResult:
    """Outcome of one matrix cell."""

    distribution: str
    sync: str
    delivery: str
    equal: bool
    checks_passed: int
    divergence: Divergence | None = None

    @property
    def label(self) -> str:
        return f"{self.distribution}×{self.sync}×{self.delivery}"


@dataclass
class OracleReport:
    """All cells of one matrix run.

    >>> r = OracleReport(cells=[], n_persons=100, n_days=8)
    >>> r.all_equal, r.total_checks
    (True, 0)
    """

    cells: list[CellResult]
    n_persons: int
    n_days: int

    @property
    def all_equal(self) -> bool:
        return all(c.equal for c in self.cells)

    @property
    def total_checks(self) -> int:
        return sum(c.checks_passed for c in self.cells)

    def format(self) -> str:
        lines = [
            f"differential oracle: {len(self.cells)} cells, "
            f"{self.n_persons} persons × {self.n_days} days"
        ]
        for c in self.cells:
            status = "exact" if c.equal else "DIVERGED"
            lines.append(f"  {c.label:<24} {status:>8}  ({c.checks_passed} invariant checks)")
            if c.divergence is not None:
                lines.append("    " + c.divergence.format().replace("\n", "\n    "))
        verdict = (
            "all cells bit-identical to the sequential reference"
            if self.all_equal
            else "EQUIVALENCE BROKEN — see divergences above"
        )
        lines.append(verdict)
        return "\n".join(lines)


# ----------------------------------------------------------------------
# reference side
# ----------------------------------------------------------------------
def sequential_reference(
    scenario: Scenario,
    kernel: str | None = None,
) -> tuple[SimulationResult, dict[int, set], np.ndarray, np.ndarray]:
    """Run the sequential simulator, also logging per-day infection events.

    Returns ``(result, events_by_day, health_state, days_remaining)``
    where ``events_by_day[d]`` is the set of ``(person, location)``
    transmissions of day ``d``.  ``kernel`` selects the exposure kernel
    (None = the module default).
    """
    from repro.core.metrics import EpiCurve, state_histogram

    sim = SequentialSimulator(scenario, kernel=kernel)
    curve = EpiCurve()
    result = SimulationResult(curve=curve, final_histogram={})
    events: dict[int, set] = {}
    for day in range(scenario.n_days):
        day_result, phase = sim.step_day()
        events[day] = {(ev.person, ev.location) for ev in phase.infections}
        result.days.append(day_result)
        curve.record_day(day_result.new_infections, day_result.prevalence)
    result.final_histogram = state_histogram(sim.health_state, scenario.disease)
    return result, events, sim.health_state, sim.days_remaining


# ----------------------------------------------------------------------
# comparison
# ----------------------------------------------------------------------
def _diff_events(
    scenario: Scenario, seq_events: dict[int, set], par_events: dict[int, set]
) -> Divergence | None:
    factory = scenario.rng_factory
    for day in range(scenario.n_days):
        s, p = seq_events.get(day, set()), par_events.get(day, set())
        if s == p:
            continue
        only_seq = sorted(s - p, key=lambda e: (e[1], e[0]))
        only_par = sorted(p - s, key=lambda e: (e[1], e[0]))
        person, location = (only_seq or only_par)[0]
        side = "sequential-only" if only_seq else "parallel-only"
        return Divergence(
            kind="events",
            day=day,
            location=location,
            person=person,
            rng_key=factory.seed(RngFactory.LOCATION, day, location, person),
            detail=(
                f"{side} infection event; {len(only_seq)} event(s) missing from "
                f"the parallel run, {len(only_par)} extra"
            ),
        )
    return None


def _diff_curve(scenario: Scenario, seq_curve, par_curve) -> Divergence | None:
    for day in range(scenario.n_days):
        if day >= par_curve.n_days:
            return Divergence(
                kind="curve", day=day,
                detail=f"parallel curve ends after {par_curve.n_days} day(s)",
            )
        if seq_curve.new_infections[day] != par_curve.new_infections[day]:
            return Divergence(
                kind="curve", day=day,
                detail=(
                    f"new infections differ: sequential "
                    f"{seq_curve.new_infections[day]}, parallel "
                    f"{par_curve.new_infections[day]}"
                ),
            )
        if not np.isclose(seq_curve.prevalence[day], par_curve.prevalence[day]):
            return Divergence(
                kind="curve", day=day,
                detail=(
                    f"prevalence differs: sequential {seq_curve.prevalence[day]!r}, "
                    f"parallel {par_curve.prevalence[day]!r}"
                ),
            )
    return None


def _diff_final_state(
    seq_state: np.ndarray,
    seq_remaining: np.ndarray,
    sim: ParallelEpiSimdemics,
) -> Divergence | None:
    names = [s.name for s in sim.scenario.disease.states]
    if not np.array_equal(seq_state, sim.health_state):
        p = int(np.flatnonzero(seq_state != sim.health_state)[0])
        return Divergence(
            kind="final-state", person=p,
            detail=(
                f"final PTTS state differs: sequential {names[int(seq_state[p])]!r}, "
                f"parallel {names[int(sim.health_state[p])]!r}"
            ),
        )
    if not np.array_equal(seq_remaining, sim.days_remaining):
        p = int(np.flatnonzero(seq_remaining != sim.days_remaining)[0])
        return Divergence(
            kind="final-state", person=p,
            detail=(
                f"dwell timer differs: sequential {int(seq_remaining[p])}, "
                f"parallel {int(sim.days_remaining[p])}"
            ),
        )
    return None


# ----------------------------------------------------------------------
# matrix driver
# ----------------------------------------------------------------------
def _make_partition(graph, distribution: str, n_pes: int):
    if distribution == "rr":
        from repro.partition import round_robin_partition

        return round_robin_partition(graph, n_pes)
    from repro.partition import partition_bipartite

    return partition_bipartite(graph, n_pes)


def run_cell(
    scenario: Scenario,
    machine: MachineConfig,
    partition,
    sync: str,
    delivery: str,
    aggregation_bytes: int = 8 * 1024,
    kernel: str | None = None,
) -> ParallelEpiSimdemics:
    """Run one matrix cell with invariant checks on; return the sim."""
    dist = Distribution.from_partition(partition, Machine(machine))
    sim = ParallelEpiSimdemics(
        scenario,
        machine,
        dist,
        sync=sync,
        delivery=delivery,
        aggregation_bytes=aggregation_bytes,
        kernel=kernel,
        validate=True,
    )
    sim.run()
    return sim


def run_matrix(
    graph,
    *,
    machine: MachineConfig | None = None,
    n_days: int = 8,
    seed: int = 0,
    initial_infections: int = 10,
    transmissibility: float = 2.0e-4,
    distributions: tuple[str, ...] = DISTRIBUTIONS,
    sync_modes: tuple[str, ...] = SYNC_MODES,
    deliveries: tuple[str, ...] = DELIVERY_MODES,
    kernel: str | None = "flat",
    reference_kernel: str | None = "grouped",
    progress=None,
) -> OracleReport:
    """Run the full differential matrix on ``graph``.

    ``kernel`` is the exposure kernel of every parallel cell and
    ``reference_kernel`` the sequential side's; the deliberately
    asymmetric defaults make each cell a cross-kernel *and*
    cross-execution differential.  ``progress`` is an optional callable
    receiving one line per finished cell (the CLI passes ``print``).

    Restrict the axes to run a subset (here: one cell):

    >>> from repro.synthpop import PopulationConfig, generate_population
    >>> g = generate_population(PopulationConfig(n_persons=60), 0)
    >>> report = run_matrix(g, n_days=2, distributions=("rr",),
    ...                     sync_modes=("cd",), deliveries=("direct",))
    >>> len(report.cells), report.all_equal
    (1, True)
    """
    from repro.core.transmission import TransmissionModel
    from repro.partition import split_heavy_locations

    machine = machine or DEFAULT_MACHINE
    n_pes = Machine(machine).n_pes

    def scenario_for(g) -> Scenario:
        return Scenario(
            graph=g,
            n_days=n_days,
            seed=seed,
            initial_infections=initial_infections,
            transmission=TransmissionModel(transmissibility),
        )

    # Graph variants and their sequential references (computed once).
    variants: dict[str, tuple] = {}

    def variant_for(distribution: str):
        key = "split" if distribution.endswith("-split") else "raw"
        if key not in variants:
            g = (
                split_heavy_locations(graph, max_partitions=4 * n_pes).graph
                if key == "split"
                else graph
            )
            variants[key] = (g, sequential_reference(scenario_for(g), reference_kernel))
        return variants[key]

    cells: list[CellResult] = []
    partitions: dict[str, object] = {}
    for distribution in distributions:
        g, (seq_result, seq_events, seq_state, seq_remaining) = variant_for(distribution)
        if distribution not in partitions:
            partitions[distribution] = _make_partition(
                g, "rr" if distribution == "rr" else "gp", n_pes
            )
        for sync in sync_modes:
            for delivery in deliveries:
                sim = run_cell(
                    scenario_for(g), machine, partitions[distribution], sync, delivery,
                    kernel=kernel,
                )
                par_curve = sim.curve
                divergence = (
                    _diff_events(sim.scenario, seq_events, {
                        d: {(ev.person, ev.location) for ev in evs}
                        for d, evs in sim.checker.infection_log.items()
                    })
                    or _diff_curve(sim.scenario, seq_result.curve, par_curve)
                    or _diff_final_state(seq_state, seq_remaining, sim)
                )
                cell = CellResult(
                    distribution=distribution,
                    sync=sync,
                    delivery=delivery,
                    equal=divergence is None,
                    checks_passed=sim.checker.checks_passed,
                    divergence=divergence,
                )
                cells.append(cell)
                if progress is not None:
                    status = "exact" if cell.equal else "DIVERGED"
                    progress(f"{cell.label:<24} {status}  ({cell.checks_passed} checks)")
    return OracleReport(cells=cells, n_persons=graph.n_persons, n_days=n_days)


# ----------------------------------------------------------------------
# kernel-vs-kernel differential (old vs new exposure kernel)
# ----------------------------------------------------------------------
@dataclass
class KernelDiffReport:
    """Head-to-head comparison of two exposure kernels."""

    kernel_a: str
    kernel_b: str
    n_persons: int
    n_days: int
    divergence: Divergence | None = None

    @property
    def equal(self) -> bool:
        return self.divergence is None

    def format(self) -> str:
        head = (
            f"kernel differential: {self.kernel_a} vs {self.kernel_b}, "
            f"{self.n_persons} persons × {self.n_days} days"
        )
        if self.equal:
            return head + "\n  kernels bit-identical (events, minutes, curve, final state)"
        return head + "\n  " + self.divergence.format().replace("\n", "\n  ")


def run_kernel_differential(
    graph,
    *,
    n_days: int = 8,
    seed: int = 0,
    initial_infections: int = 10,
    transmissibility: float = 2.0e-4,
    kernel_a: str = "grouped",
    kernel_b: str = "flat",
) -> KernelDiffReport:
    """Run the sequential simulator once per kernel and compare exactly.

    Stricter than the matrix's event-set comparison: per-day infection
    events must match as ordered ``(person, location, minute)`` lists —
    the kernels promise bit-for-bit equivalence, including the order
    infect messages are emitted in — and the epidemic curve, final PTTS
    state and dwell timers must be identical.
    """
    from repro.core.transmission import TransmissionModel

    def scenario() -> Scenario:
        return Scenario(
            graph=graph,
            n_days=n_days,
            seed=seed,
            initial_infections=initial_infections,
            transmission=TransmissionModel(transmissibility),
        )

    report = KernelDiffReport(
        kernel_a=kernel_a, kernel_b=kernel_b,
        n_persons=graph.n_persons, n_days=n_days,
    )
    sc_a, sc_b = scenario(), scenario()
    sim_a = SequentialSimulator(sc_a, kernel=kernel_a)
    sim_b = SequentialSimulator(sc_b, kernel=kernel_b)
    factory = sc_a.rng_factory
    for day in range(n_days):
        day_a, phase_a = sim_a.step_day()
        day_b, phase_b = sim_b.step_day()
        ev_a = [(e.person, e.location, e.minute) for e in phase_a.infections]
        ev_b = [(e.person, e.location, e.minute) for e in phase_b.infections]
        if ev_a != ev_b:
            only_a = sorted(set(ev_a) - set(ev_b))
            only_b = sorted(set(ev_b) - set(ev_a))
            if only_a or only_b:
                person, location, _minute = (only_a or only_b)[0]
                detail = (
                    f"{len(only_a)} event(s) only in {kernel_a}, "
                    f"{len(only_b)} only in {kernel_b}"
                )
            else:
                person, location, _minute = ev_a[0]
                detail = "same events, different emission order"
            report.divergence = Divergence(
                kind="events", day=day, location=location, person=person,
                rng_key=factory.seed(RngFactory.LOCATION, day, location, person),
                detail=detail,
            )
            return report
        if (day_a.new_infections, day_a.prevalence) != (
            day_b.new_infections, day_b.prevalence
        ):
            report.divergence = Divergence(
                kind="curve", day=day,
                detail=(
                    f"{kernel_a}: {day_a.new_infections} new / prevalence "
                    f"{day_a.prevalence!r}; {kernel_b}: {day_b.new_infections} "
                    f"new / prevalence {day_b.prevalence!r}"
                ),
            )
            return report
    report.divergence = _diff_final_state_arrays(
        sim_a.health_state, sim_a.days_remaining,
        sim_b.health_state, sim_b.days_remaining,
    )
    return report


# ----------------------------------------------------------------------
# the SMP backend's cells (real processes vs sequential reference)
# ----------------------------------------------------------------------
#: Population presets the SMP matrix certifies on: "tiny" is the
#: generator's default synthetic town; "heavy" the Zipf-popularity
#: stress graph where one location absorbs a large share of all visits.
SMP_PRESETS = ("tiny", "heavy")


@dataclass
class SmpCellResult:
    """Outcome of one (preset, worker-count) SMP cell."""

    preset: str
    workers: int
    equal: bool
    backpressure: int = 0
    divergence: Divergence | None = None

    @property
    def label(self) -> str:
        return f"{self.preset}×w{self.workers}"


@dataclass
class SmpOracleReport:
    """All cells of one SMP differential run.

    >>> r = SmpOracleReport(cells=[], n_days=4)
    >>> r.all_equal
    True
    """

    cells: list[SmpCellResult]
    n_days: int

    @property
    def all_equal(self) -> bool:
        return all(c.equal for c in self.cells)

    def format(self) -> str:
        lines = [f"smp differential oracle: {len(self.cells)} cells, {self.n_days} days"]
        for c in self.cells:
            status = "exact" if c.equal else "DIVERGED"
            lines.append(
                f"  {c.label:<16} {status:>8}  ({c.backpressure} ring stalls)"
            )
            if c.divergence is not None:
                lines.append("    " + c.divergence.format().replace("\n", "\n    "))
        lines.append(
            "smp backend bit-identical to the sequential reference"
            if self.all_equal
            else "EQUIVALENCE BROKEN — see divergences above"
        )
        return "\n".join(lines)


def run_smp_matrix(
    *,
    workers: tuple[int, ...] = (1, 2, 4),
    presets: tuple[str, ...] = SMP_PRESETS,
    n_days: int = 6,
    seed: int = 0,
    initial_infections: int = 8,
    transmissibility: float = 2.0e-4,
    kernel: str | None = "flat",
    reference_kernel: str | None = "grouped",
    tiny_persons: int = 300,
    heavy_persons: int = 1500,
    heavy_locations: int = 200,
    ring_capacity: int = 1024,
    progress=None,
) -> SmpOracleReport:
    """Certify the shared-memory backend against the sequential reference.

    Every cell forks real worker processes
    (:class:`~repro.smp.SmpSimulator`), runs the scenario, and checks
    the per-day infection-event sets, the epidemic curve and the final
    per-person arrays for exact equality — the same three diffs as the
    simulated-runtime matrix.  A deliberately small ``ring_capacity``
    keeps the backpressure path exercised.

    >>> report = run_smp_matrix(workers=(2,), presets=("tiny",), n_days=2,
    ...                         tiny_persons=80)
    >>> report.all_equal
    True
    """
    from repro.core.transmission import TransmissionModel
    from repro.smp import SmpSimulator
    from repro.spec import PopulationSpec

    def graph_for(preset: str):
        # Both presets go through PopulationSpec — the same construction
        # path (and cache key) the CLI, the benchmarks and the lab use.
        if preset == "tiny":
            return PopulationSpec(
                n_persons=tiny_persons, seed=seed, name="synthetic"
            ).build()
        if preset == "heavy":
            return PopulationSpec(
                kind="preset", preset="heavy-tailed", n_persons=heavy_persons,
                params={"n_locations": heavy_locations},
            ).build()
        raise ValueError(f"unknown preset {preset!r} (expected one of {SMP_PRESETS})")

    def scenario_for(g) -> Scenario:
        return Scenario(
            graph=g,
            n_days=n_days,
            seed=seed,
            initial_infections=initial_infections,
            transmission=TransmissionModel(transmissibility),
        )

    cells: list[SmpCellResult] = []
    for preset in presets:
        g = graph_for(preset)
        seq_result, seq_events, seq_state, seq_remaining = sequential_reference(
            scenario_for(g), reference_kernel
        )
        for n_workers in workers:
            sim = SmpSimulator(
                scenario_for(g), n_workers=n_workers, kernel=kernel,
                ring_capacity=ring_capacity,
            )
            out = sim.run()
            divergence = (
                _diff_events(sim.scenario, seq_events, {
                    d: {(person, loc) for person, loc, _minute in rows.tolist()}
                    for d, rows in out.infection_log.items()
                })
                or _diff_curve(sim.scenario, seq_result.curve, out.result.curve)
                or _diff_final_state_arrays(
                    seq_state, seq_remaining,
                    out.final_health_state, out.final_days_remaining,
                )
            )
            cell = SmpCellResult(
                preset=preset,
                workers=n_workers,
                equal=divergence is None,
                backpressure=out.backpressure_events,
                divergence=divergence,
            )
            cells.append(cell)
            if progress is not None:
                status = "exact" if cell.equal else "DIVERGED"
                progress(f"{cell.label:<16} {status}")
    return SmpOracleReport(cells=cells, n_days=n_days)


# ----------------------------------------------------------------------
# the scenario matrix (every registered scenario × backends × kernels)
# ----------------------------------------------------------------------
@dataclass
class ScenarioCellResult:
    """Outcome of one (scenario, backend/kernel) cell."""

    scenario: str
    backend: str
    equal: bool
    checks_passed: int = 0
    divergence: Divergence | None = None

    @property
    def label(self) -> str:
        return f"{self.scenario}×{self.backend}"


@dataclass
class ScenarioOracleReport:
    """All cells of one scenario differential run.

    >>> r = ScenarioOracleReport(cells=[], n_persons=300, n_days=6)
    >>> r.all_equal
    True
    """

    cells: list[ScenarioCellResult]
    n_persons: int
    n_days: int

    @property
    def all_equal(self) -> bool:
        return all(c.equal for c in self.cells)

    @property
    def total_checks(self) -> int:
        return sum(c.checks_passed for c in self.cells)

    def format(self) -> str:
        lines = [
            f"scenario differential oracle: {len(self.cells)} cells, "
            f"{self.n_persons} persons × {self.n_days} days"
        ]
        for c in self.cells:
            status = "exact" if c.equal else "DIVERGED"
            extra = f"  ({c.checks_passed} checks)" if c.checks_passed else ""
            lines.append(f"  {c.label:<36} {status:>8}{extra}")
            if c.divergence is not None:
                lines.append("    " + c.divergence.format().replace("\n", "\n    "))
        lines.append(
            "every scenario bit-identical across backends and kernels"
            if self.all_equal
            else "EQUIVALENCE BROKEN — see divergences above"
        )
        return "\n".join(lines)


def run_scenario_matrix(
    *,
    scenarios: tuple[str, ...] | None = None,
    workers: tuple[int, ...] = (1, 2),
    machine: MachineConfig | None = None,
    n_days: int = 6,
    seed: int = 0,
    initial_infections: int = 8,
    transmissibility: float = 3.0e-4,
    persons: int = 300,
    kernel: str | None = "flat",
    reference_kernel: str | None = "grouped",
    ring_capacity: int = 1024,
    progress=None,
) -> ScenarioOracleReport:
    """Certify every registered scenario bit-identical across backends.

    For each scenario name (default: all of
    :func:`repro.scenarios.names`) the grouped-kernel sequential run is
    the reference; the cells compare it against the sequential
    simulator on ``kernel`` (plus the compiled kernel when a C
    toolchain is present), the chare runtime with invariant checks on
    (which also exercises each component's declared
    ``extra_transitions``), and the shared-memory backend at each
    worker count — the same three exact diffs as the base matrix.

    >>> report = run_scenario_matrix(scenarios=("turnover",), workers=(1,),
    ...                              n_days=2, persons=80)
    >>> report.all_equal
    True
    """
    from repro.core import ckernel
    from repro.scenarios import registry
    from repro.smp import SmpSimulator
    from repro.spec import PopulationSpec

    machine = machine or DEFAULT_MACHINE
    n_pes = Machine(machine).n_pes
    graph = PopulationSpec(
        n_persons=persons, seed=seed, name="scenario-oracle"
    ).build()
    partition = _make_partition(graph, "rr", n_pes)

    def build(name: str) -> Scenario:
        return registry.build_scenario(
            name, graph, n_days=n_days, seed=seed,
            initial_infections=initial_infections,
            transmissibility=transmissibility,
        )

    def emit(cell: ScenarioCellResult) -> None:
        cells.append(cell)
        if progress is not None:
            status = "exact" if cell.equal else "DIVERGED"
            progress(f"{cell.label:<36} {status}")

    cells: list[ScenarioCellResult] = []
    seq_kernels = [kernel] + (["compiled"] if ckernel.available() else [])
    for name in scenarios or tuple(registry.names()):
        sc = build(name)
        seq_result, seq_events, seq_state, seq_remaining = sequential_reference(
            sc, reference_kernel
        )
        for k in seq_kernels:
            _res, ev, st, rem = sequential_reference(build(name), k)
            divergence = (
                _diff_events(sc, seq_events, ev)
                or _diff_curve(sc, seq_result.curve, _res.curve)
                or _diff_final_state_arrays(seq_state, seq_remaining, st, rem)
            )
            emit(ScenarioCellResult(
                scenario=name, backend=f"seq-{k}",
                equal=divergence is None, divergence=divergence,
            ))
        sim = run_cell(build(name), machine, partition, "cd", "aggregated",
                       kernel=kernel)
        divergence = (
            _diff_events(sim.scenario, seq_events, {
                d: {(ev.person, ev.location) for ev in evs}
                for d, evs in sim.checker.infection_log.items()
            })
            or _diff_curve(sim.scenario, seq_result.curve, sim.curve)
            or _diff_final_state(seq_state, seq_remaining, sim)
        )
        emit(ScenarioCellResult(
            scenario=name, backend="charm-rr",
            equal=divergence is None,
            checks_passed=sim.checker.checks_passed,
            divergence=divergence,
        ))
        for n_workers in workers:
            out = SmpSimulator(
                build(name), n_workers=n_workers, kernel=kernel,
                ring_capacity=ring_capacity,
            ).run()
            divergence = (
                _diff_events(sc, seq_events, {
                    d: {(person, loc) for person, loc, _minute in rows.tolist()}
                    for d, rows in out.infection_log.items()
                })
                or _diff_curve(sc, seq_result.curve, out.result.curve)
                or _diff_final_state_arrays(
                    seq_state, seq_remaining,
                    out.final_health_state, out.final_days_remaining,
                )
            )
            emit(ScenarioCellResult(
                scenario=name, backend=f"smp-w{n_workers}",
                equal=divergence is None, divergence=divergence,
            ))
    return ScenarioOracleReport(
        cells=cells, n_persons=graph.n_persons, n_days=n_days
    )


def _diff_final_state_arrays(
    state_a: np.ndarray,
    remaining_a: np.ndarray,
    state_b: np.ndarray,
    remaining_b: np.ndarray,
) -> Divergence | None:
    if not np.array_equal(state_a, state_b):
        p = int(np.flatnonzero(state_a != state_b)[0])
        return Divergence(
            kind="final-state", person=p,
            detail=f"final PTTS state index differs: {int(state_a[p])} vs {int(state_b[p])}",
        )
    if not np.array_equal(remaining_a, remaining_b):
        p = int(np.flatnonzero(remaining_a != remaining_b)[0])
        return Divergence(
            kind="final-state", person=p,
            detail=f"dwell timer differs: {int(remaining_a[p])} vs {int(remaining_b[p])}",
        )
    return None
