"""The differential oracle: one diff over the run record every backend reports.

The sequential simulator, the chare runtime and the forked smp workers
all return a :class:`~repro.core.simulator.SimulationResult`: the curve,
each day's infect records and the final per-person arrays.  A *cell*
runs one scenario under one :class:`~repro.spec.RuntimeSpec`, and
:func:`diff_runs` holds its record to a sequential reference run of the
same scenario, exactly; a mismatch is a :class:`Divergence` naming the
first divergent day, location, person and transmission RNG key.

The four cell lists — :func:`run_matrix` (charm: {RR, GP, GP-splitLoc}
× {cd, qd} × {direct, aggregated, TRAM}), :func:`run_kernel_differential`,
:func:`run_smp_matrix` and :func:`run_scenario_matrix` — share one
runner, one driver and one :class:`OracleReport`.  splitLoc cells
compare against a reference on the *split* graph (the split is a
preprocessing step; ``tests/partition/test_splitloc.py`` pins it).  By
default the reference runs the ``flat`` kernel and every cell the
default one (``compiled`` where the C library loads), so there each cell
is a cross-kernel differential too.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import zip_longest

import numpy as np

from repro.charm.machine import Machine, MachineConfig
from repro.core import ckernel
from repro.core.parallel import Distribution, ParallelEpiSimdemics
from repro.core.scenario import Scenario
from repro.core.simulator import SequentialSimulator, SimulationResult
from repro.core.transmission import TransmissionModel
from repro.partition import partition_bipartite, round_robin_partition, split_heavy_locations
from repro.scenarios import registry
from repro.smp import SmpSimulator
from repro.spec import PopulationSpec, RuntimeSpec
from repro.util.rng import RngFactory

__all__ = [
    "DISTRIBUTIONS",
    "SYNC_MODES",
    "DELIVERY_MODES",
    "SMP_PRESETS",
    "Divergence",
    "CellResult",
    "OracleReport",
    "diff_runs",
    "run_matrix",
    "run_kernel_differential",
    "run_smp_matrix",
    "run_scenario_matrix",
]

DISTRIBUTIONS = ("rr", "gp", "gp-split")
SYNC_MODES = ("cd", "qd")
DELIVERY_MODES = ("direct", "aggregated", "tram")
#: Population presets the smp cells certify on: "tiny" is the
#: generator's default synthetic town; "heavy" the Zipf-popularity
#: stress graph where one location absorbs a large share of all visits.
SMP_PRESETS = ("tiny", "heavy")

#: Matrix-wide default machine: 2 SMP nodes, 8 PEs — small enough for
#: CI, large enough that every protocol (tree collectives, comm
#: threads, inter-node wires) actually runs.
DEFAULT_MACHINE = MachineConfig(n_nodes=2, cores_per_node=4, smp=True, processes_per_node=1)

_NO_RECORDS = np.empty((0, 3), dtype=np.int64)


@dataclass(frozen=True)
class Divergence:
    """Structured description of the first reference↔run mismatch."""

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
    """Outcome of one cell; :meth:`format` is its streamed line.

    >>> print(CellResult("rr×cd×direct", True, None, checks_passed=51).format())
      rr×cd×direct                            exact  (51 invariant checks)
    """

    label: str
    equal: bool
    divergence: Divergence | None
    checks_passed: int = 0

    def format(self) -> str:
        extra = f"  ({self.checks_passed} invariant checks)" if self.checks_passed else ""
        return f"  {self.label:<36} {'exact' if self.equal else 'DIVERGED':>8}{extra}"


@dataclass
class OracleReport:
    """All cells of one oracle run.

    >>> r = OracleReport("differential oracle", cells=[], n_persons=100, n_days=8)
    >>> r.all_equal, r.total_checks
    (True, 0)
    >>> print(r.format())
    differential oracle: 0 cells, 100 persons × 8 days
    all cells bit-identical to the sequential reference
    """

    title: str
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
        """Header, the divergences and the verdict (the cells' own lines
        were printed as they finished)."""
        n = len(self.cells)
        lines = [
            f"{self.title}: {n} cell{'s' * (n != 1)}, "
            f"{self.n_persons} persons × {self.n_days} days"
        ]
        for c in self.cells:
            if c.divergence is not None:
                lines.append(f"  {c.label}: " + c.divergence.format().replace("\n", "\n    "))
        lines.append(
            "all cells bit-identical to the sequential reference"
            if self.all_equal
            else "EQUIVALENCE BROKEN — see divergences above"
        )
        return "\n".join(lines)


def diff_runs(
    scenario: Scenario, ref: SimulationResult, got: SimulationResult, *, ordered: bool
) -> Divergence | None:
    """The first difference between two run records of ``scenario``.

    Day by day: the curve's length (in both directions), then the
    infect records, then new infections and prevalence with ``==``.
    With ``ordered`` (both sides in emission order: sequential runs,
    and smp over its contiguous block slabs) each day's record arrays
    must be equal as they are; otherwise as sets of ``(person, location, minute)`` rows, since
    a parallel runtime's delivery order is not part of the contract.
    Last, every person's final PTTS state and dwell timer.

    >>> from repro.core import Scenario, TransmissionModel
    >>> from repro.synthpop import PopulationConfig, generate_population
    >>> sc = Scenario(graph=generate_population(PopulationConfig(n_persons=80), 0),
    ...               n_days=3, seed=0, initial_infections=4,
    ...               transmission=TransmissionModel(4e-4))
    >>> ref = SequentialSimulator(sc, kernel="flat").run()
    >>> got = SequentialSimulator(sc).run()
    >>> diff_runs(sc, ref, got, ordered=True) is None
    True
    >>> got.curve.prevalence[2] = float(np.nextafter(got.curve.prevalence[2], 1.0))
    >>> print(diff_runs(sc, ref, got, ordered=True).format())
    first divergence: curve, day 2
      reference: 10 new / prevalence 0.25; run: 10 new / prevalence 0.25000000000000006
    """
    n_ref, n_got = ref.curve.n_days, got.curve.n_days
    for day in range(max(n_ref, n_got)):
        if day >= min(n_ref, n_got):
            return Divergence(
                kind="curve", day=day,
                detail=f"the reference curve has {n_ref} day(s), the run's {n_got}",
            )
        a = ref.infection_log.get(day, _NO_RECORDS)
        b = got.infection_log.get(day, _NO_RECORDS)
        if not (np.array_equal(a, b) or (not ordered and np.array_equal(_by_row(a), _by_row(b)))):
            return _events_divergence(scenario.rng_factory, day, a, b)
        new_ref, new_got = ref.curve.new_infections[day], got.curve.new_infections[day]
        prev_ref, prev_got = ref.curve.prevalence[day], got.curve.prevalence[day]
        if new_ref != new_got or prev_ref != prev_got:
            return Divergence(
                kind="curve", day=day,
                detail=(
                    f"reference: {new_ref} new / prevalence {prev_ref!r}; "
                    f"run: {new_got} new / prevalence {prev_got!r}"
                ),
            )
    names = [s.name for s in scenario.disease.states]
    for what, a, b, show in (
        ("final PTTS state", ref.final_health_state, got.final_health_state,
         lambda v: repr(names[v])),
        ("dwell timer", ref.final_days_remaining, got.final_days_remaining, str),
    ):
        if not np.array_equal(a, b):
            p = int(np.flatnonzero(a != b)[0])
            return Divergence(
                kind="final-state", person=p,
                detail=f"{what} differs: reference {show(int(a[p]))}, run {show(int(b[p]))}",
            )
    return None


def _by_row(records: np.ndarray) -> np.ndarray:
    """``records`` sorted by (person, location, minute)."""
    return records[np.lexsort(records.T[::-1])]


def _events_divergence(factory: RngFactory, day: int, a, b) -> Divergence:
    rows_a, rows_b = set(map(tuple, a.tolist())), set(map(tuple, b.tolist()))
    only = sorted(rows_a ^ rows_b, key=lambda e: (e[1], e[0], e[2]))
    if only:
        first = only[0]
        detail = (
            f"{len(rows_a - rows_b)} event(s) only in the reference, {len(rows_b - rows_a)} "
            f"only in the run; first (person, location, minute): {first}"
        )
    else:  # equal sets: name the first row out of order or repeated
        first = next(x or y for x, y in zip_longest(a.tolist(), b.tolist()) if x != y)
        detail = "same events, different emission order or multiplicity"
    person, location, _minute = first
    return Divergence(
        kind="events", day=day, location=location, person=person,
        rng_key=factory.seed(RngFactory.LOCATION, day, location, person), detail=detail,
    )


def _kernel_name(kernel: str | None) -> str:
    """The kernel a run on ``kernel`` uses: None is the default."""
    return kernel or ("compiled" if ckernel.available() else "flat")


def _make_partition(graph, distribution: str, n_pes: int):
    return (round_robin_partition if distribution == "rr" else partition_bipartite)(graph, n_pes)


def _run_cell(
    scenario: Scenario, runtime: RuntimeSpec, partition, machine: MachineConfig
) -> tuple[SimulationResult, int]:
    """Run one cell: ``(result, invariant checks passed)``."""
    if runtime.backend == "seq":
        return SequentialSimulator(scenario, kernel=runtime.kernel).run(), 0
    if runtime.backend == "smp":
        out = SmpSimulator(
            scenario, n_workers=runtime.workers, partition=partition, kernel=runtime.kernel,
        ).run()
        return out.result, 0
    sim = ParallelEpiSimdemics(
        scenario, machine, Distribution.from_partition(partition, Machine(machine)),
        sync=runtime.sync, delivery=runtime.delivery, aggregation_bytes=8 * 1024,
        kernel=runtime.kernel, validate=True,
    )
    return sim.run().result, sim.checker.checks_passed


def _drive(
    title: str, cells, reference_kernel: str | None, n_days: int,
    machine: MachineConfig = DEFAULT_MACHINE,
) -> OracleReport:
    """Run ``cells`` — ``(label, build, runtime, partition)`` tuples, where
    ``build()`` makes a fresh copy of the cell's scenario — against one
    sequential reference per ``build``, printing each line as it lands."""
    references: dict = {}
    results: list[CellResult] = []
    n_persons = 0
    for label, build, runtime, partition in cells:
        if build not in references:
            references[build] = SequentialSimulator(build(), kernel=reference_kernel).run()
        scenario = build()
        got, checks = _run_cell(scenario, runtime, partition, machine)
        # smp under its default block partition concatenates the
        # workers' ascending location slabs: the sequential order
        ordered = runtime.backend == "seq" or (runtime.backend == "smp" and partition is None)
        divergence = diff_runs(scenario, references[build], got, ordered=ordered)
        cell = CellResult(label, divergence is None, divergence, checks)
        print(cell.format(), flush=True)
        results.append(cell)
        n_persons = max(n_persons, scenario.graph.n_persons)
    return OracleReport(title, results, n_persons, n_days)


def _plain(graph, n_days: int, seed: int, initial_infections: int, transmissibility: float):
    """Factory of the plain influenza scenario on ``graph``."""
    return partial(
        Scenario, graph=graph, n_days=n_days, seed=seed,
        initial_infections=initial_infections, transmission=TransmissionModel(transmissibility),
    )


def run_matrix(
    graph, *, machine: MachineConfig | None = None, n_days: int = 8, seed: int = 0,
    initial_infections: int = 10, transmissibility: float = 2.0e-4,
    distributions: tuple[str, ...] = DISTRIBUTIONS,
    sync_modes: tuple[str, ...] = SYNC_MODES,
    deliveries: tuple[str, ...] = DELIVERY_MODES,
    kernel: str | None = None, reference_kernel: str | None = "flat",
) -> OracleReport:
    """The charm runtime's cells: distribution × sync × delivery.

    ``kernel`` is the exposure kernel of every cell and
    ``reference_kernel`` the sequential side's; where the C library
    loads, the defaults make each cell a cross-kernel *and*
    cross-execution differential.  Restrict the axes to run a subset
    (here: one cell):

    >>> from repro.synthpop import PopulationConfig, generate_population
    >>> g = generate_population(PopulationConfig(n_persons=60), 0)
    >>> report = run_matrix(g, n_days=2, distributions=("rr",),
    ...                     sync_modes=("cd",), deliveries=("direct",))
      rr×cd×direct                            exact  (27 invariant checks)
    >>> len(report.cells), report.all_equal
    (1, True)
    """
    machine = machine or DEFAULT_MACHINE
    n_pes = Machine(machine).n_pes
    builds, cells = {}, []
    for distribution in distributions:
        split = distribution.endswith("-split")
        if split not in builds:
            g = split_heavy_locations(graph, max_partitions=4 * n_pes).graph if split else graph
            builds[split] = _plain(g, n_days, seed, initial_infections, transmissibility)
        build = builds[split]
        partition = _make_partition(build.keywords["graph"], distribution, n_pes)
        for sync in sync_modes:
            for delivery in deliveries:
                runtime = RuntimeSpec("charm", kernel=kernel, sync=sync, delivery=delivery)
                cells.append((f"{distribution}×{sync}×{delivery}", build, runtime, partition))
    return _drive("differential oracle", cells, reference_kernel, n_days, machine)


def run_kernel_differential(
    graph, *, n_days: int = 8, seed: int = 0, initial_infections: int = 10,
    transmissibility: float = 2.0e-4, kernel_a: str = "flat", kernel_b: str | None = None,
) -> OracleReport:
    """One sequential cell: ``kernel_b`` (None: the default kernel,
    ``compiled`` where the C library loads) against a ``kernel_a``
    reference, so the infect records must match in emission order,
    minute included.

    >>> from repro.synthpop import PopulationConfig, generate_population
    >>> g = generate_population(PopulationConfig(n_persons=60), 0)
    >>> run_kernel_differential(g, n_days=2).all_equal  # doctest: +ELLIPSIS
      flat-vs-...exact
    True
    """
    kernel_b = _kernel_name(kernel_b)
    build = _plain(graph, n_days, seed, initial_infections, transmissibility)
    cells = [(f"{kernel_a}-vs-{kernel_b}", build, RuntimeSpec(kernel=kernel_b), None)]
    return _drive(f"kernel differential {kernel_a} vs {kernel_b}", cells, kernel_a, n_days)


def run_smp_matrix(
    *, workers: tuple[int, ...] = (1, 2, 4), presets: tuple[str, ...] = SMP_PRESETS,
    n_days: int = 6, seed: int = 0, initial_infections: int = 8,
    transmissibility: float = 2.0e-4, kernel: str | None = None,
    reference_kernel: str | None = "flat", tiny_persons: int = 300,
    heavy_persons: int = 1500, heavy_locations: int = 200,
) -> OracleReport:
    """The shared-memory backend's cells: preset × worker count.

    Every cell forks real worker processes
    (:class:`~repro.smp.SmpSimulator`) and is compared *ordered*: its
    infection log must be the sequential one, record for record.

    >>> report = run_smp_matrix(workers=(2,), presets=("tiny",), n_days=2,
    ...                         tiny_persons=80)  # doctest: +ELLIPSIS
      tiny×w2                                 exact...
    >>> report.all_equal
    True
    """
    # Both presets go through PopulationSpec — the same construction
    # path (and cache key) the CLI, the benchmarks and the lab use.
    specs = {
        "tiny": PopulationSpec(n_persons=tiny_persons, seed=seed, name="synthetic"),
        "heavy": PopulationSpec(
            kind="preset", preset="heavy-tailed", n_persons=heavy_persons,
            params={"n_locations": heavy_locations},
        ),
    }
    cells = []
    for preset in presets:
        if preset not in specs:
            raise ValueError(f"unknown preset {preset!r} (expected one of {SMP_PRESETS})")
        build = _plain(specs[preset].build(), n_days, seed, initial_infections, transmissibility)
        for w in workers:
            runtime = RuntimeSpec("smp", w, kernel=kernel)
            cells.append((f"{preset}×w{w}", build, runtime, None))
    return _drive("smp differential oracle", cells, reference_kernel, n_days)


def run_scenario_matrix(
    *, scenarios: tuple[str, ...] | None = None, workers: tuple[int, ...] = (1, 2),
    machine: MachineConfig | None = None, n_days: int = 6, seed: int = 0,
    initial_infections: int = 8, transmissibility: float = 3.0e-4, persons: int = 300,
    kernel: str | None = None, reference_kernel: str | None = "flat",
) -> OracleReport:
    """Every registered scenario's cells: seq kernels, charm, smp.

    For each scenario (default: all of :func:`repro.scenarios.names`)
    the cells are the sequential simulator on ``kernel`` and on the
    default kernel (``compiled`` where the C library loads; one cell when
    the two are the same), the chare runtime with invariant checks on
    (which also exercises each component's declared
    ``extra_transitions``) and smp at each worker count.

    >>> report = run_scenario_matrix(scenarios=("turnover",), workers=(1,),
    ...                              n_days=2, persons=80)  # doctest: +ELLIPSIS
      turnover×seq-...exact
    ...
      turnover×smp-w1                         exact...
    >>> len(report.cells) >= 3, report.all_equal
    (True, True)
    """
    machine = machine or DEFAULT_MACHINE
    graph = PopulationSpec(n_persons=persons, seed=seed, name="scenario-oracle").build()
    partition = _make_partition(graph, "rr", Machine(machine).n_pes)
    seq_kernels = dict.fromkeys([_kernel_name(kernel), _kernel_name(None)])
    cells = []
    for name in scenarios or tuple(registry.names()):
        build = partial(
            registry.build_scenario, name, graph, n_days=n_days, seed=seed,
            initial_infections=initial_infections, transmissibility=transmissibility,
        )
        cells += [(f"{name}×seq-{k}", build, RuntimeSpec(kernel=k), None) for k in seq_kernels]
        charm = RuntimeSpec("charm", kernel=kernel)
        cells.append((f"{name}×charm-rr", build, charm, partition))
        for w in workers:
            smp = RuntimeSpec("smp", w, kernel=kernel)
            cells.append((f"{name}×smp-w{w}", build, smp, None))
    return _drive("scenario differential oracle", cells, reference_kernel, n_days, machine)
