"""Distribution-level oracle against independent baseline simulators.

The differential oracle (:mod:`repro.validate.oracle`) proves every
execution mode equals the sequential reference — it cannot notice a bug
*in* the reference.  This oracle can: it runs matched ensembles of

* the sequential reference with :func:`repro.core.disease.sir_model`,
* :func:`repro.baselines.fastsir.run_fastsir`, and
* :func:`repro.baselines.dijkstra.run_dijkstra`

on the same synthetic populations and requires the three **final-size
and prevalence-trajectory distributions** to be statistically
indistinguishable.  The baselines are implemented from their papers on
the projected contact graph, sharing no model code with the simulator,
so agreement here certifies the additive-hazard transmission semantics,
the PTTS dwell bookkeeping and the seeding conventions against two
independent derivations of the same stochastic process.

Statistical design (see :mod:`repro.baselines.stats`): each
(preset × baseline) cell runs three permutation tests — KS and
Anderson–Darling on final sizes, and a sup-over-days KS on the
prevalence trajectories — with the familywise ``alpha`` Bonferroni-split
across all tests of the report.  Permutation p-values with keyed
generators make the whole report a pure function of ``seed``: a passing
configuration can never start flaking, and the false-positive rate is
bounded by ``alpha`` by construction.

``mutation=`` injects a deliberate model bug on the *model side only*
(the oracle-power self-test): a passing oracle must flag every
supported mutation while passing the unmodified model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.baselines import (
    ContactGraph,
    HeavyTailCheck,
    MetricComparison,
    SEIRParams,
    compare_samples,
    heavy_tail_check,
    project_contact_graph,
    run_dijkstra,
    run_fastsir,
)
from repro.baselines.stats import permutation_pvalue, trajectory_ks_statistic
from repro.core.pttsl import format_ptts
from repro.lab.pool import WorkerPool
from repro.spec import PopulationSpec, RunSpec
from repro.util.rng import RngFactory, derive_seed

__all__ = [
    "EXTERNAL_PRESETS",
    "BASELINES",
    "MUTATIONS",
    "ExternalCellResult",
    "ExternalOracleReport",
    "run_external_oracle",
]

EXTERNAL_PRESETS = ("tiny", "heavy")
BASELINES = ("fastsir", "dijkstra")
#: Supported model-side bug injections (the oracle-power self-test).
MUTATIONS = ("transmissibility_x2", "drop_recovery")

#: Stream salts below the BASELINE prefix: one per consumer so the
#: model, the two baselines and the permutation tests stay independent.
_SALT_FASTSIR = 0
_SALT_DIJKSTRA = 1
_SALT_MODEL = 2
_SALT_PERMUTE = 3


def _mutated_disease(mutation: str | None, latent_days: int, infectious_days: int):
    """The model-side PTTS — possibly with an injected bug."""
    from repro.core.disease import (
        DiseaseModel,
        DwellDistribution,
        HealthState,
        Transition,
        UNTREATED,
        sir_model,
    )

    if mutation is None or mutation == "transmissibility_x2":
        return sir_model(infectious_days=infectious_days, latent_days=latent_days)
    if mutation == "drop_recovery":
        # The classic lost-transition bug: infectious forever.
        states = [
            HealthState("S", susceptibility=1.0),
            HealthState(
                "E",
                dwell=DwellDistribution.fixed(latent_days),
                transitions={UNTREATED: (Transition("I", 1.0),)},
            ),
            HealthState("I", infectivity=1.0, symptomatic=True),
        ]
        return DiseaseModel(states, susceptible="S", infection_entry={UNTREATED: "E"})
    raise ValueError(f"unknown mutation {mutation!r} (expected one of {MUTATIONS})")


# ----------------------------------------------------------------------
# model-side replications (lab tasks)
# ----------------------------------------------------------------------
def _model_ensemble(
    pool: WorkerPool,
    population: PopulationSpec,
    disease: str,
    transmissibility: float,
    *,
    n_days: int,
    initial_infections: int,
    seed: int,
    replications: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Final sizes and prevalence trajectories of the model ensemble.

    Replication ``rep`` is a :class:`~repro.spec.RunSpec` under root
    seed ``derive_seed(seed, BASELINE, rep, salt)`` whatever the pool
    size, and the pool returns results in submission order, so the
    ensemble is bit-identical for any worker count (asserted by
    ``tests/validate/test_external.py``).
    """
    results = pool.map(
        RunSpec(
            population=population,
            disease=disease,
            transmissibility=transmissibility,
            n_days=n_days,
            initial_infections=initial_infections,
            seed=derive_seed(seed, RngFactory.BASELINE, rep, _SALT_MODEL),
        )
        for rep in range(replications)
    )
    sizes = np.array([r.total_infections for r in results], dtype=np.float64)
    prevalence = np.array([r.prevalence for r in results], dtype=np.float64)
    return sizes, prevalence


def _baseline_ensemble(
    contact: ContactGraph,
    params: SEIRParams,
    *,
    baseline: str,
    n_days: int,
    initial_infections: int,
    factory: RngFactory,
    replications: int,
) -> tuple[np.ndarray, np.ndarray]:
    runner = run_fastsir if baseline == "fastsir" else run_dijkstra
    salt = _SALT_FASTSIR if baseline == "fastsir" else _SALT_DIJKSTRA
    sizes = np.empty(replications, dtype=np.float64)
    prevalence = np.empty((replications, n_days), dtype=np.float64)
    for rep in range(replications):
        rng = factory.stream(RngFactory.BASELINE, rep, salt)
        result = runner(contact, params, n_days, initial_infections, rng)
        sizes[rep] = result.final_size
        prevalence[rep] = result.prevalence
    return sizes, prevalence


# ----------------------------------------------------------------------
# report structure
# ----------------------------------------------------------------------
@dataclass
class ExternalCellResult:
    """One (preset × baseline) distribution comparison."""

    preset: str
    baseline: str
    comparisons: list[MetricComparison]
    model_final_sizes: np.ndarray
    baseline_final_sizes: np.ndarray
    model_prevalence: np.ndarray
    baseline_prevalence: np.ndarray

    @property
    def label(self) -> str:
        return f"{self.preset}×{self.baseline}"

    @property
    def equal(self) -> bool:
        return not any(c.reject for c in self.comparisons)

    def format(self) -> str:
        status = "agrees" if self.equal else "DIVERGED"
        lines = [
            f"{self.label:<18} {status:>8}  "
            f"(model final size {self.model_final_sizes.mean():.1f} ± "
            f"{self.model_final_sizes.std():.1f}, "
            f"{self.baseline} {self.baseline_final_sizes.mean():.1f} ± "
            f"{self.baseline_final_sizes.std():.1f})"
        ]
        for c in self.comparisons:
            marker = "!" if c.reject else " "
            lines.append(f"  {marker} {c.format()}")
        return "\n".join(lines)


@dataclass
class ExternalOracleReport:
    """All cells of one distribution-oracle run.

    >>> r = ExternalOracleReport(cells=[], n_days=8, replications=10,
    ...                          alpha=0.01, mutation=None)
    >>> r.all_equal
    True
    """

    cells: list[ExternalCellResult]
    n_days: int
    replications: int
    alpha: float
    mutation: str | None = None
    heavy_tail: HeavyTailCheck | None = None
    notes: list[str] = field(default_factory=list)

    @property
    def all_equal(self) -> bool:
        cells_ok = all(c.equal for c in self.cells)
        tail_ok = self.heavy_tail is None or self.heavy_tail.passed
        return cells_ok and tail_ok

    def format(self) -> str:
        head = (
            f"external distribution oracle: {len(self.cells)} cells, "
            f"{self.replications} replications × {self.n_days} days, "
            f"familywise alpha {self.alpha:g}"
        )
        if self.mutation:
            head += f", injected mutation {self.mutation!r}"
        lines = [head]
        for cell in self.cells:
            lines.append("  " + cell.format().replace("\n", "\n  "))
        if self.heavy_tail is not None:
            lines.append("  heavy-tail " + self.heavy_tail.format())
        lines.extend(f"  note: {n}" for n in self.notes)
        if self.all_equal:
            lines.append(
                "model distributions indistinguishable from the independent baselines"
            )
        else:
            lines.append("DISTRIBUTIONS DIVERGED — see cells above")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------
def run_external_oracle(
    *,
    presets: tuple[str, ...] = EXTERNAL_PRESETS,
    baselines: tuple[str, ...] = BASELINES,
    n_days: int = 12,
    replications: int = 30,
    seed: int = 0,
    transmissibility: float = 1.0e-4,
    latent_days: int = 2,
    infectious_days: int = 4,
    initial_infections: int = 3,
    alpha: float = 0.01,
    n_permutations: int = 2000,
    workers: int = 1,
    mutation: str | None = None,
    heavy_tail: bool = True,
    heavy_tail_replications: int = 200,
    tiny_persons: int = 300,
    heavy_persons: int = 1500,
    heavy_locations: int = 200,
    progress=None,
) -> ExternalOracleReport:
    """Run the distribution-level oracle; return its structured report.

    Every stochastic choice (replications, permutation shuffles) is
    keyed below ``seed``, so the report is a deterministic function of
    its arguments.  The model-side replications are
    :class:`~repro.spec.RunSpec` tasks on one lab
    :class:`~repro.lab.pool.WorkerPool` of ``workers`` processes
    (inline when ``workers`` ≤ 1), without changing any result bit; a
    killed worker raises :class:`~repro.lab.pool.LabWorkerError`.

    The per-test rejection level is ``alpha`` divided by the number of
    tests in the report (three per cell); ``n_permutations`` must
    resolve p-values below that level, i.e. ``1/(n_permutations + 1) <
    alpha / (3 · n_cells)`` — raised as an error otherwise, because an
    under-resolved oracle silently loses all power.

    >>> report = run_external_oracle(presets=("tiny",), n_days=4,
    ...     replications=4, tiny_persons=60, n_permutations=2000,
    ...     heavy_tail=False)
    >>> len(report.cells)
    2
    """
    unknown = set(presets) - set(EXTERNAL_PRESETS)
    if unknown:
        raise ValueError(f"unknown presets {sorted(unknown)}")
    if mutation is not None and mutation not in MUTATIONS:
        raise ValueError(f"unknown mutation {mutation!r} (expected one of {MUTATIONS})")

    n_cells = len(presets) * len(baselines)
    n_tests = 3 * n_cells
    threshold = alpha / n_tests
    if 1.0 / (n_permutations + 1) >= threshold:
        raise ValueError(
            f"n_permutations={n_permutations} cannot resolve p < {threshold:g}; "
            f"need at least {int(np.ceil(1.0 / threshold))}"
        )

    params = SEIRParams(transmissibility, latent_days, infectious_days)
    disease = "ptts:" + format_ptts(
        _mutated_disease(mutation, latent_days, infectious_days)
    )
    model_r = (
        2.0 * transmissibility if mutation == "transmissibility_x2" else transmissibility
    )
    factory = RngFactory(seed)

    cells: list[ExternalCellResult] = []
    tail_check: HeavyTailCheck | None = None
    with WorkerPool(workers if workers > 1 else 0) as pool:
        for preset_idx, preset in enumerate(presets):
            if preset == "tiny":
                pspec = PopulationSpec(
                    n_persons=tiny_persons, seed=seed, name="oracle-tiny"
                )
            else:
                pspec = PopulationSpec(
                    kind="preset", preset="heavy-tailed", n_persons=heavy_persons,
                    params={"n_locations": heavy_locations},
                )
            contact = project_contact_graph(pool.cache.population(pspec))
            contact.validate()

            model_sizes, model_prev = _model_ensemble(
                pool,
                pspec,
                disease,
                model_r,
                n_days=n_days,
                initial_infections=initial_infections,
                seed=seed,
                replications=replications,
            )

            for baseline_idx, baseline in enumerate(baselines):
                base_sizes, base_prev = _baseline_ensemble(
                    contact,
                    params,
                    baseline=baseline,
                    n_days=n_days,
                    initial_infections=initial_infections,
                    factory=factory,
                    replications=replications,
                )
                perm_rng = factory.stream(
                    RngFactory.BASELINE, 1000 + preset_idx, baseline_idx, _SALT_PERMUTE
                )
                comparisons = [
                    compare_samples(
                        model_sizes,
                        base_sizes,
                        perm_rng,
                        metric="final-size",
                        threshold=threshold,
                        n_permutations=n_permutations,
                    ),
                ]
                traj, traj_p = permutation_pvalue(
                    model_prev,
                    base_prev,
                    perm_rng,
                    statistic=trajectory_ks_statistic,
                    n_permutations=n_permutations,
                )
                comparisons.append(
                    MetricComparison(
                        metric="prevalence",
                        day=None,
                        ks=traj,
                        ks_pvalue=traj_p,
                        ad=0.0,
                        ad_pvalue=1.0,
                        threshold=threshold,
                        detail="sup over days of per-day KS",
                    )
                )
                cell = ExternalCellResult(
                    preset=preset,
                    baseline=baseline,
                    comparisons=comparisons,
                    model_final_sizes=model_sizes,
                    baseline_final_sizes=base_sizes,
                    model_prevalence=model_prev,
                    baseline_prevalence=base_prev,
                )
                cells.append(cell)
                if progress is not None:
                    progress(f"{cell.label:<18} {'agrees' if cell.equal else 'DIVERGED'}")

            if preset == "heavy" and heavy_tail:
                tail_check = heavy_tail_check(
                    contact,
                    rng_factory=factory,
                    latent_days=latent_days,
                    infectious_days=infectious_days,
                    replications=heavy_tail_replications,
                )
                if progress is not None:
                    progress("heavy-tail " + tail_check.format())

    return ExternalOracleReport(
        cells=cells,
        n_days=n_days,
        replications=replications,
        alpha=alpha,
        mutation=mutation,
        heavy_tail=tail_check,
    )
