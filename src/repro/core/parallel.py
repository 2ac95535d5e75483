"""EpiSimdemics as chares on the simulated Charm++ runtime.

The paper's Figure-1 structure: two chare arrays — PersonManagers (PM)
and LocationManagers (LM) — each managing many second-level objects
(persons / locations), distributed by one of the data-distribution
strategies (RR, GP, …-splitLoc) and mapped onto PEs.  Each simulated
day runs the six-step algorithm with real protocol traffic:

1. driver advances every person's PTTS once, centrally, then
   broadcasts ``person_phase`` — PMs charge their own share of the
   transitions, filter their visits through the intervention schedule,
   and hand the surviving rows to the aggregation channel in one
   ``send_many_via``: modelled as one 16-byte record per visit, carried
   as one columnar record batch per (PE → PE) flush, which the owning
   LMs receive as arrays of rows;
2. a completion detector (or quiescence detector) closes the phase;
3. driver runs the DES/interaction kernel once over every location's
   visits less the rows the PMs' interventions removed (the rows
   received are modelled traffic), groups its infections and
   per-location loads by owning LM, then broadcasts ``location_phase``
   — LMs charge their own locations' share and send infect messages
   (the LMs share one location pass as the PMs share the PTTS pass);
4. a second detector closes the infect phase;
5. driver broadcasts ``apply_phase`` — PMs apply infections;
6. a spanning-tree reduction returns the day's statistics to the driver.

**Semantics are exact** (keyed RNG makes the epidemic identical to the
sequential reference — asserted in tests); **time is modelled**: entry
methods charge costs from :class:`ComputeCostModel` (the paper's load
model) and every message pays the machine/network model's prices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from repro import observe
from repro.charm.chare import Chare
from repro.charm.completion import CompletionDetector, QuiescenceDetector
from repro.charm.loadbalance import MigrationCostModel, greedy_lb, refine_lb
from repro.charm.machine import Machine, MachineConfig
from repro.charm.messages import INFECT_BYTES, VISIT_BYTES
from repro.charm.network import NetworkModel
from repro.charm.scheduler import RuntimeSimulator
from repro.core import day as day_steps
from repro.core.day import DayResult, EpidemicState, OwnershipPlan, PhaseTimes
from repro.core.exposure import KERNELS, LocationPhaseResult
from repro.core.interventions import DayContext
from repro.core.metrics import EpiCurve, state_histogram
from repro.core.scenario import Scenario
from repro.core.simulator import SimulationResult
from repro.loadmodel.dynamic import DynamicLoadModel
from repro.loadmodel.static import PAPER_STATIC_MODEL, PiecewiseLoadModel
from repro.partition.quality import BipartitePartition

__all__ = [
    "ComputeCostModel",
    "Distribution",
    "PhaseTimes",
    "ParallelResult",
    "ParallelEpiSimdemics",
]


@dataclass(frozen=True)
class ComputeCostModel:
    """Virtual-time costs of the application's compute kernels.

    Location costs come from the paper's static model (events) plus the
    dynamic model (interactions) — the dynamic part is what static
    partitioning cannot balance.  Person-side constants are set so the
    person phase costs roughly 30–50% of the location phase at equal
    balance, matching the paper's description of a dual-phase
    computation with the location phase dominant.
    """

    location_static: PiecewiseLoadModel = PAPER_STATIC_MODEL
    location_dynamic: DynamicLoadModel = field(default_factory=DynamicLoadModel)
    #: per owned person per day (health recalculation)
    person_health_cost: float = 2.0e-7
    #: per visit generated (schedule computation + message build)
    visit_compute_cost: float = 6.0e-7
    #: per PTTS transition fired
    transition_cost: float = 1.0e-6
    #: per infect message applied
    infect_apply_cost: float = 1.0e-6

    def location_costs(self, events: np.ndarray, interactions: np.ndarray) -> np.ndarray:
        """Virtual seconds of each location's phase: the static model
        over its ``events`` plus the dynamic model over its
        ``interactions``.  Elementwise ufuncs (multiply, add, divide,
        clip, exp, maximum) give each element the same double at any
        array length or stride, so one evaluation over every location
        and a slice of it agree bit for bit with the scalar loop's
        ``float(static(e)) + float(dynamic(e, i))``."""
        return self.location_static.evaluate(events) + self.location_dynamic.evaluate(
            events, interactions
        )

    @staticmethod
    def phase_charge(costs: np.ndarray) -> float:
        """Virtual seconds of one LocationManager phase over its
        locations' :meth:`location_costs`, summed in array order — bit
        for bit the scalar loop ``compute += float(static(e)) +
        float(dynamic(e, i))`` from ``0.0``: ``np.cumsum``
        (``np.add.accumulate``) adds strictly left to right and ``0.0 +
        x == x`` (each cost is positive), so ``cumsum(costs)[-1]`` is the
        loop's final ``compute``, and a phase with no location charges
        exactly ``0.0``.

        Not ``np.sum`` (pairwise), ``math.fsum`` (exactly rounded) or
        builtin ``sum`` (compensated on Python ≥ 3.12).
        """
        return float(np.cumsum(costs)[-1]) if costs.size else 0.0


@dataclass
class Distribution:
    """Object→chare and chare→PE mapping for both arrays.

    Built from a :class:`BipartitePartition` whose part ids are chare
    ids; chares map to PEs round-robin (part ``c`` → PE ``c % n_pes``),
    so with ``chares_per_pe == 1`` part ids are PE ids, and with
    over-decomposition each PE holds several parts.
    """

    person_chare: np.ndarray
    location_chare: np.ndarray
    n_pm: int
    n_lm: int
    pm_placement: np.ndarray
    lm_placement: np.ndarray
    method: str = ""

    @classmethod
    def from_partition(
        cls, partition: BipartitePartition, machine: Machine | MachineConfig
    ) -> "Distribution":
        n_pes = machine.n_pes if isinstance(machine, Machine) else Machine(machine).n_pes
        k = partition.k
        return cls(
            person_chare=partition.person_part.astype(np.int64),
            location_chare=partition.location_part.astype(np.int64),
            n_pm=k,
            n_lm=k,
            pm_placement=np.arange(k, dtype=np.int64) % n_pes,
            lm_placement=np.arange(k, dtype=np.int64) % n_pes,
            method=partition.method,
        )


@dataclass
class ParallelResult:
    """Epidemic output + virtual timing of a parallel run."""

    result: SimulationResult
    phase_times: list[PhaseTimes]
    total_virtual_time: float
    runtime_stats: dict

    @property
    def time_per_day(self) -> float:
        """Mean virtual seconds per simulated day — Figure 13's y-axis."""
        if not self.phase_times:
            return 0.0
        return float(np.mean([p.total for p in self.phase_times]))


class _PersonManager(Chare):
    def __init__(self, sim: "ParallelEpiSimdemics", persons: np.ndarray, rows: np.ndarray):
        self.sim = sim
        self.persons = persons
        self.rows = rows  # all visit rows owned by this PM's persons
        self.pending_infections: list[int] = []

    def person_phase(self, day: int) -> None:
        sim = self.sim
        cost = sim.costs
        # the PTTS already ran for everyone in ``prepare_day``
        keep = day_steps.filter_visits(sim.scenario, sim.day_ctx, self.rows)
        rows = self.rows
        if keep is not None:  # tell the LMs, through the one run-wide mask
            if sim.removed is None:
                sim.removed = np.zeros(sim.graph.n_visits, dtype=bool)
            sim.removed[rows] = ~keep
            rows = rows[keep]
        self.charge(
            cost.person_health_cost * self.persons.size
            + cost.transition_cost * sim.transitions_per_pm[self.index]
        )
        self.charge(cost.visit_compute_cost * rows.size)
        if sim.checker is not None:
            sim.checker.record_visits_sent(rows)
        lm_of = sim.distribution.location_chare
        dests = lm_of[sim.graph.visit_location[rows]]
        det = sim.visit_detector
        channel = sim.name("visits")
        det.produce(rows.size)
        self.send_many_via(channel, sim.name("lm"), dests, "recv_visits", rows, VISIT_BYTES)
        self.sim.runtime.flush_channel(channel, self.pe)
        det.producer_done()

    def recv_infect(self, payload) -> None:
        person, _minute = payload
        self.sim.infect_detector.consume()
        if self.sim.checker is not None:
            self.sim.checker.record_infect_received(person)
        self.pending_infections.append(person)

    def apply_phase(self, day: int) -> None:
        sim = self.sim
        pending = np.asarray(self.pending_infections, dtype=np.int64)
        self.pending_infections = []
        infected = day_steps.apply_phase(sim.state, sim.scenario, day, pending)
        self.charge(sim.costs.infect_apply_cost * max(1, pending.size))
        self.contribute(sim.name("day_stats"), infected)


class _LocationManager(Chare):
    def __init__(self, sim: "ParallelEpiSimdemics"):
        self.sim = sim

    def recv_visits(self, rows: np.ndarray) -> None:
        # modelled traffic: the day's location pass reads the removed mask
        self.sim.visit_detector.consume(rows.size)
        if self.sim.checker is not None:
            self.sim.checker.record_visits_received(rows, self.index)

    def location_phase(self, day: int) -> None:
        sim = self.sim
        # this LM's slice of the day's one pass (``share_location_phase``)
        records, charge = sim.lm_share[self.index]
        if sim.checker is not None:
            sim.checker.record_infections(day, LocationPhaseResult(records).infections)
        sim.records_by_day.setdefault(day, []).append(records)
        self.charge(charge)
        det = sim.infect_detector
        pm_of = sim.distribution.person_chare
        pm_name = sim.name("pm")
        # One infect message per infection, in emission order.
        for (person, _loc, minute), pm in zip(records.tolist(), pm_of[records[:, 0]].tolist()):
            det.produce()
            self.send(pm_name, pm, "recv_infect", (person, minute), INFECT_BYTES)
        det.producer_done()


class _Driver(Chare):
    def __init__(self, sim: "ParallelEpiSimdemics"):
        self.sim = sim
        self._t_start = 0.0
        self._t_visits = 0.0
        self._t_locations = 0.0

    def start_day(self, _payload=None) -> None:
        sim = self.sim
        day = sim.day
        sim.prepare_day(day)
        self._t_start = self.now()
        driver = sim.name("driver")
        sim.visit_detector.begin_phase(sim.distribution.n_pm, (driver, 0, "visits_done"))
        sim.infect_detector.begin_phase(sim.distribution.n_lm, (driver, 0, "infects_done"))
        self.runtime.broadcast(sim.name("pm"), "person_phase", day)

    def visits_done(self, _payload=None) -> None:
        self._t_visits = self.now()
        sim = self.sim
        if sim.checker is not None:
            sim.checker.close_visit_phase(sim.runtime.aggregators[sim.name("visits")])
        sim.share_location_phase(sim.day)
        self.runtime.broadcast(sim.name("lm"), "location_phase", sim.day)

    def infects_done(self, _payload=None) -> None:
        self._t_locations = self.now()
        if self.sim.checker is not None:
            self.sim.checker.close_infect_phase()
        self.runtime.broadcast(self.sim.name("pm"), "apply_phase", self.sim.day)

    def on_day_stats(self, new_infections: int) -> None:
        sim = self.sim
        sim.finish_day(
            new_infections,
            PhaseTimes(
                day=sim.day,
                start=self._t_start,
                visits_done=self._t_visits,
                locations_done=self._t_locations,
                day_done=self.now(),
            ),
        )
        # Load balancing runs at the day boundary (bulk synchronous);
        # charging the driver delays the next day's broadcast, which is
        # exactly the global stall an LB step causes.
        lb_cost = sim.maybe_rebalance(sim.day)
        if lb_cost:
            self.charge(lb_cost)
        if sim.day < sim.scenario.n_days:
            self.send(sim.name("driver"), 0, "start_day", None)


class ParallelEpiSimdemics:
    """Drives one scenario on the simulated runtime.

    Parameters
    ----------
    scenario:
        The simulation specification (same object the sequential
        simulator takes).
    machine:
        Machine shape (nodes, cores, SMP layout).
    distribution:
        Object→chare→PE mapping from a partitioning strategy.
    network:
        Communication cost constants.
    costs:
        Compute-kernel cost constants.
    sync:
        ``"cd"`` (completion detection, the paper's optimisation) or
        ``"qd"`` (quiescence detection, the baseline).
    aggregation_bytes:
        Visit-channel buffer size; 0 disables aggregation.
    delivery:
        Visit-channel transport: ``"aggregated"`` (per-destination
        buffers, the paper's §IV-C optimisation), ``"direct"`` (every
        visit pays its own envelope — the no-opt baseline, equivalent
        to ``aggregation_bytes=0``) or ``"tram"`` (mesh-routed
        TRAM-style aggregation, footnote 1).  A delivery mode is a
        performance choice only — the epidemic is identical under all
        three (asserted by :mod:`repro.validate`).
    kernel:
        Exposure-kernel selection for the LocationManagers' interaction
        computation (``"flat"`` / ``"compiled"``, see
        :data:`repro.core.exposure.KERNELS`; None = ``"compiled"`` where
        the C library loads, else ``"flat"``).  The two are bit-for-bit
        equivalent — a performance choice only, like ``delivery``.
    validate:
        Attach an :class:`~repro.validate.invariants.InvariantChecker`
        and enable the runtime's own invariant checks: exactly-once
        visit delivery, detector-closure soundness, unique transmission
        RNG keys, legal PTTS steps, partition/infection conservation.
        Costs one extra bookkeeping pass per message; off by default.
    lb_period:
        Rebalance LocationManagers every N days (None = off).  Needs
        over-decomposition (more LM chares than PEs) to have any moves
        to make.
    lb_strategy:
        ``"greedy"`` / ``"refine"`` (measurement-based, Charm++-style)
        or ``"predictive"`` (the paper's §VII application-specific
        proposal: predicted = static(events) + dynamic(last observed
        interactions)).
    migration_model:
        Virtual-time price of an LB step.
    runtime:
        Attach to an existing runtime instead of creating one — this is
        how several simulations share a machine (§IV-B's "multiple
        simulations simultaneously" scenario; see
        :class:`ParallelEnsemble`).  Requires a unique ``namespace``.
    namespace:
        Prefix applied to every array/channel/detector name this
        simulation creates on the runtime.
    """

    def __init__(
        self,
        scenario: Scenario,
        machine: MachineConfig,
        distribution: Distribution,
        network: NetworkModel | None = None,
        costs: ComputeCostModel | None = None,
        sync: str = "cd",
        aggregation_bytes: int = 64 * 1024,
        delivery: str = "aggregated",
        lb_period: int | None = None,
        lb_strategy: str = "greedy",
        migration_model: MigrationCostModel | None = None,
        runtime: RuntimeSimulator | None = None,
        namespace: str = "",
        kernel: str | None = None,
        validate: bool = False,
    ):
        if sync not in ("cd", "qd"):
            raise ValueError("sync must be 'cd' or 'qd'")
        if delivery not in ("aggregated", "direct", "tram"):
            raise ValueError("delivery must be 'aggregated', 'direct' or 'tram'")
        if kernel is not None and kernel not in KERNELS:
            raise ValueError(f"kernel must be one of {KERNELS}, got {kernel!r}")
        if lb_strategy not in ("greedy", "refine", "predictive"):
            raise ValueError("lb_strategy must be greedy, refine or predictive")
        if lb_period is not None and lb_period < 1:
            raise ValueError("lb_period must be a positive day count")
        self.scenario = scenario
        self.graph = scenario.graph
        self.distribution = distribution
        self.costs = costs or ComputeCostModel()
        self.rng_factory = scenario.rng_factory
        self.namespace = namespace
        self.kernel = kernel
        self.runtime = (
            runtime
            if runtime is not None
            else RuntimeSimulator(machine, network, validate=validate)
        )
        self.runtime.ensure_pe_agents()
        scenario.interventions.reset()
        if validate:
            from repro.validate.invariants import InvariantChecker

            self.checker: InvariantChecker | None = InvariantChecker(
                scenario.graph, scenario.disease, distribution,
                extra_transitions=scenario.interventions.extra_transitions(
                    scenario.disease
                ),
                reinfection_ok=scenario.interventions.reinfection_possible(
                    scenario.disease
                ),
            )
        else:
            self.checker = None

        self.state = EpidemicState.initial(scenario)
        # the same ndarrays, mutated in place only (see EpidemicState)
        self.health_state = self.state.health_state
        self.days_remaining = self.state.days_remaining
        self.treatment = self.state.treatment
        self.ever_infected = self.state.ever_infected
        self.day = 0
        self.day_ctx: DayContext | None = None
        self._seeded_count = 0
        self.day_transitions = 0  # PTTS transitions fired today, over all PMs
        #: visit rows the PMs' interventions dropped today (None: none)
        self.removed: np.ndarray | None = None
        self.transitions_per_pm: list[int] = []  # the same, per PM
        self.curve = EpiCurve()
        self.phase_times: list[PhaseTimes] = []
        self.day_results: list[DayResult] = []
        #: per day, each LocationManager's infect records, in phase order
        self.records_by_day: dict[int, list[np.ndarray]] = {}
        #: per LM, today's records and load-model charge of its locations
        self.lm_share: list[tuple[np.ndarray, float]] = []
        self.lb_period = lb_period
        self.lb_strategy = lb_strategy
        self.migration_model = migration_model or MigrationCostModel()
        self.lb_steps = 0
        self.lb_moves = 0
        #: per location, S×I pairs on the last completed day
        self.last_interactions = np.zeros(self.graph.n_locations, dtype=np.int64)
        self._cost_snapshot: dict[tuple[str, int], float] = {}

        dist = distribution
        plan = OwnershipPlan.build(self.graph, dist.person_chare, dist.location_chare, dist.n_pm)
        if self.checker is not None:
            lm_owned = [dist.location_chare == c for c in range(dist.n_lm)]
            self.checker.check_partition(plan.persons, plan.visit_rows, lm_owned)

        rt = self.runtime
        if delivery == "tram":
            rt.create_tram_channel(self.name("visits"), aggregation_bytes)
        else:
            rt.create_channel(
                self.name("visits"), 0 if delivery == "direct" else aggregation_bytes
            )
        rt.create_array(
            self.name("pm"),
            lambda i: _PersonManager(self, plan.persons[i], plan.visit_rows[i]),
            dist.pm_placement,
        )
        rt.create_array(
            self.name("lm"),
            lambda i: _LocationManager(self),
            dist.lm_placement,
        )
        rt.create_array(
            self.name("driver"), lambda i: _Driver(self), np.zeros(1, dtype=np.int64)
        )
        detector_cls = CompletionDetector if sync == "cd" else QuiescenceDetector
        self.visit_detector = detector_cls(rt, self.name("visits_phase"))
        self.infect_detector = detector_cls(rt, self.name("infect_phase"))
        rt.register_reduction(
            self.name("day_stats"), combine=lambda a, b: a + b, arrays=[self.name("pm")],
            target=(self.name("driver"), 0, "on_day_stats"),
        )
        if lb_period is not None:
            rt.enable_chare_cost_tracking(self.name("lm"))

    @classmethod
    def from_spec(cls, spec, graph=None, partition=None) -> "ParallelEpiSimdemics":
        """Build from a :class:`repro.spec.RunSpec`: one PE per worker,
        delivery/sync/kernel from the spec's runtime config.

        ``graph``/``partition`` short-circuit the population and
        partition builds (pass cached artifacts).
        """
        if graph is None:
            graph = spec.population.build()
        if partition is None:
            graph, partition = spec.resolved_partition().build(graph)
        rt = spec.runtime
        try:
            machine = MachineConfig(
                n_nodes=1, cores_per_node=rt.workers, smp=rt.workers > 1
            )
        except ValueError:
            # Worker counts whose SMP shape is invalid (k >= cores or
            # k ∤ cores, e.g. 2 or 3) run every core as its own process.
            machine = MachineConfig(
                n_nodes=1, cores_per_node=rt.workers, smp=False
            )
        return cls(
            spec.build_scenario(graph),
            machine,
            Distribution.from_partition(partition, machine),
            sync=rt.sync,
            delivery=rt.delivery,
            kernel=rt.kernel,
        )

    def name(self, base: str) -> str:
        """Namespaced runtime identifier for this simulation's objects."""
        return self.namespace + base

    # ------------------------------------------------------------------
    def prepare_day(self, day: int) -> None:
        """Central start-of-day work: seeding, treatments, day context,
        and the day's one PTTS pass over everyone — keyed draws make it
        equal to the PMs' disjoint subset advances, and it is the
        sequential order; each PM charges :attr:`transitions_per_pm`."""
        self.day_ctx, self._seeded_count = day_steps.open_day(self.state, self.scenario, day)
        if self.checker is not None:
            self.checker.begin_day(day, self.health_state)
        self.last_interactions[:] = 0
        self.removed = None
        changed = day_steps.advance_persons(self.state, self.scenario, self.day_ctx)
        self.day_transitions = int(changed.size)
        self.transitions_per_pm = np.bincount(
            self.distribution.person_chare[changed], minlength=self.distribution.n_pm
        ).tolist()

    def share_location_phase(self, day: int) -> None:
        """The day's one location pass, once the visit phase has closed
        (:attr:`removed` is final): every location, grouped by owning LM
        into :attr:`lm_share` by one stable pass.  Records come sorted by
        ``(location, person)`` and events by location, so an LM's slice is
        what a call over its own locations emits, in that order.  The
        load model is evaluated once over every location; each LM's
        charge sums its slice (:meth:`ComputeCostModel.phase_charge`)."""
        phase = day_steps.location_phase(
            self.state, self.scenario, day, None, self.removed, kernel=self.kernel,
            collect_stats=True,
        )
        n = len(phase.events)
        locs = np.fromiter(phase.events, np.int64, n)
        events = np.fromiter(phase.events.values(), np.float64, n)
        inter = np.fromiter(map(phase.interactions.get, phase.events, repeat(0)), np.int64, n)
        # Feed the predictive load balancer's application-specific view.
        self.last_interactions[locs] = inter
        costs = self.costs.location_costs(events, inter)
        lm_of, n_lm = self.distribution.location_chare, self.distribution.n_lm

        def by_lm(owner: np.ndarray) -> list[np.ndarray]:
            order = np.argsort(owner, kind="stable")
            return np.split(order, np.cumsum(np.bincount(owner, minlength=n_lm))[:-1])

        self.lm_share = [
            (phase.records[r], ComputeCostModel.phase_charge(costs[l]))
            for r, l in zip(by_lm(lm_of[phase.records[:, 1]]), by_lm(lm_of[locs]))
        ]

    def maybe_rebalance(self, day: int) -> float:
        """Run an LB step if due; return its virtual-time cost (0 if not).

        Called by the driver at the day boundary.  Only LocationManagers
        migrate — the location phase carries the dynamic load.
        """
        if self.lb_period is None or day == 0 or day % self.lb_period != 0:
            return 0.0
        rt = self.runtime
        lm_name = self.name("lm")
        arr = rt.arrays[lm_name]
        n_lm = arr.n_elements
        if self.lb_strategy == "predictive":
            # Application-specific prediction (paper §VII): the next
            # day's LM cost from the static model plus the dynamic model
            # fed with the interactions just observed.
            events = 2.0 * self.graph.location_visit_counts.astype(np.float64)
            static = self.costs.location_static.evaluate(events)
            per_loc = static + self.costs.location_dynamic.evaluate(events, self.last_interactions)
            costs = np.zeros(n_lm)
            np.add.at(costs, self.distribution.location_chare, per_loc)
        else:
            # Measured costs since the previous LB step (principle of
            # persistence).
            costs = np.zeros(n_lm)
            for (aname, idx), total in rt.chare_costs.items():
                if aname == lm_name:
                    costs[idx] = total - self._cost_snapshot.get((aname, idx), 0.0)
            self._cost_snapshot = dict(rt.chare_costs)
        old = arr.placement.copy()
        if self.lb_strategy == "refine":
            new = refine_lb(costs, old, rt.machine.n_pes)
        else:
            new = greedy_lb(costs, rt.machine.n_pes)
        summary = rt.migrate_array(lm_name, new)
        self.lb_steps += 1
        self.lb_moves += summary["moved"]
        return self.migration_model.step_cost(rt.machine, rt.network, old, new)

    def finish_day(self, new_infections: int, times: PhaseTimes) -> None:
        """Called by the driver when a day's reduction arrives."""
        result = day_steps.close_day(
            self.state, self.scenario, self.day_ctx, seeded=self._seeded_count,
            # the detector keeps the day's count until start_day re-arms it
            visits_made=int(self.visit_detector.produced.sum()),
            transitions=self.day_transitions, infected=new_infections,
        )
        self.curve.record_day(result.new_infections, result.prevalence)
        if self.checker is not None:
            self.checker.end_day(self.day, self.health_state, self.ever_infected, self.curve)
        self.day_results.append(result)
        self.phase_times.append(times)
        self.day += 1

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Inject the first day (used when sharing a runtime)."""
        self.runtime.inject(self.name("driver"), 0, "start_day")

    def collect(self) -> ParallelResult:
        """Assemble the result after the runtime has drained."""
        result = SimulationResult(
            curve=self.curve,
            final_histogram=state_histogram(self.health_state, self.scenario.disease),
            days=self.day_results,
            infection_log={d: np.concatenate(parts) for d, parts in self.records_by_day.items()},
            final_health_state=self.health_state,
            final_days_remaining=self.days_remaining,
        )
        return ParallelResult(
            result=result,
            phase_times=self.phase_times,
            total_virtual_time=self.runtime.current_time,
            runtime_stats=self.runtime.stats_summary(),
        )

    def run(self) -> ParallelResult:
        """Run all days; return epidemic output plus virtual timing.

        While an :mod:`repro.observe` observer is installed, the runtime
        records every entry-method execution as a per-PE virtual span —
        the Projections-style per-PE timeline view — and the observer
        gets one timeline row per PE of the machine, idle ones included.
        Recording draws no random numbers, so the epidemic is
        bit-identical with or without it.
        """
        n_pes = self.runtime.machine.n_pes
        if (obs := observe.active()) is not None:
            obs.n_pes = max(obs.n_pes, n_pes)
        with observe.span(
            "parallel.run",
            days=self.scenario.n_days,
            pes=n_pes,
            method=self.distribution.method,
        ):
            self.start()
            self.runtime.run(max_events=200_000_000)
        return self.collect()


class ParallelEnsemble:
    """Several simulations sharing one simulated machine (§IV-B).

    The paper's stated reason for completion detection over quiescence
    detection: "in the future, we will use EPISIMDEMICS to perform
    multiple simulations simultaneously, using dynamic replication of
    state (chare arrays); we require an approach that enables us to
    perform synchronization local to a module."  An ensemble runs R
    replicas (different seeds or policies) concurrently on one runtime;
    with CD each replica's phases close independently, while QD — which
    observes *global* traffic — couples every replica to the slowest
    one's drainage (see ``tests/integration/test_ensemble.py``).
    """

    def __init__(
        self,
        scenarios: list[Scenario],
        machine: MachineConfig,
        distributions: list[Distribution],
        network: NetworkModel | None = None,
        sync: str = "cd",
        **sim_kwargs,
    ):
        if len(scenarios) != len(distributions):
            raise ValueError("need one distribution per scenario")
        if not scenarios:
            raise ValueError("empty ensemble")
        self.runtime = RuntimeSimulator(machine, network)
        self.sims = [
            ParallelEpiSimdemics(
                sc, machine, dist, sync=sync, runtime=self.runtime,
                namespace=f"r{i}.", **sim_kwargs,
            )
            for i, (sc, dist) in enumerate(zip(scenarios, distributions))
        ]

    def run(self) -> list[ParallelResult]:
        for sim in self.sims:
            sim.start()
        self.runtime.run(max_events=500_000_000)
        return [sim.collect() for sim in self.sims]
