"""The seven ladder workloads, as specs generated from one seed.

Each exists because it puts the run's time in a *different* layer, so
that an optimisation has one workload that exercises its mechanism and
one that bypasses it (``README.md`` has the table of which is which).
Sizes are fixed here and nowhere else; ``smoke`` shrinks every workload
to <= 2K persons / <= 3 days / 8 sweep runs for the self-test.

What ``--seed`` varies, and what it does not
--------------------------------------------
The population is the workload's *dataset* and has a fixed seed
(:data:`POPULATION_SEED`); ``seed`` feeds ``RunSpec.seed`` and
``SweepConfig.master_seed`` — the index cases and every stochastic draw
of the epidemic — which is also the lab's own convention (replicates
never vary the population).  Measured at 200K persons, re-drawing the
Pareto location-attractiveness tail with the seed moved the work of a
run (candidate visits, keyed draws) by +-9% and run_s by 15-40% between
seeds; with the dataset fixed and the epidemic started from 0.2-1% of
the population instead of 10 persons, the same counts stay within 2%.
That is what lets one regression bound hold for every seed.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.lab import SweepConfig
from repro.spec import PartitionSpec, PopulationSpec, RunSpec, RuntimeSpec

__all__ = ["DEFAULT_SEED", "POPULATION_SEED", "NAMES", "Workload", "build"]

DEFAULT_SEED = 20140519
POPULATION_SEED = 20140519

_COMPILED = RuntimeSpec(kernel="compiled")


@dataclass(frozen=True)
class Workload:
    name: str
    #: the run; for ``sweep_small`` the sweep's template
    spec: RunSpec
    sweep: SweepConfig | None = None
    #: also run the same epidemic sequentially under ``compiled`` (on
    #: the partition's graph when splitLoc rewrote it) and require
    #: identical curves — how the dense trio and charm-vs-seq are tied
    cross_check: bool = False

    @property
    def n_runs(self) -> int:
        return self.sweep.n_runs if self.sweep else 1

    @property
    def reference_spec(self) -> RunSpec:
        return dataclasses.replace(self.spec, partition=None, runtime=_COMPILED)


def _persons(full: int, smoke: bool) -> int:
    return 2_000 if smoke else full


def _dense(seed: int, smoke: bool, runtime: RuntimeSpec) -> RunSpec:
    # Zipf location popularity, 1% index cases: the full course in 20
    # days (peak ~day 4, ~99% attack, a long tail), so early, peak and
    # tail days all count and every seed draws the same curve shape.
    n = _persons(24_000, smoke)
    return RunSpec(
        population=PopulationSpec(
            kind="preset", preset="heavy-tailed", n_persons=n,
            seed=POPULATION_SEED, params={"n_locations": n // 8},
        ),
        n_days=3 if smoke else 20, seed=seed, initial_infections=n // 100,
        runtime=runtime,
    )


def _simmering(seed: int, smoke: bool, population: PopulationSpec, n_days: int) -> RunSpec:
    # 0.2% index cases at an eighth of the default transmissibility: an
    # outbreak that neither takes off nor dies within the run, so
    # prevalence stays under 0.5% and ~2/3 of the gathered visits are
    # at locations with nobody to infect or be infected.
    return RunSpec(
        population=population, n_days=3 if smoke else n_days, seed=seed,
        initial_infections=population.n_persons // 500, transmissibility=2.5e-5,
        runtime=_COMPILED,
    )


def _generated(n_persons: int, smoke: bool) -> PopulationSpec:
    return PopulationSpec(
        kind="generated", n_persons=_persons(n_persons, smoke), seed=POPULATION_SEED
    )


def _seq_dense_compiled(seed, smoke):
    return Workload("seq_dense_compiled", _dense(seed, smoke, _COMPILED))


def _seq_dense_flat(seed, smoke):
    return Workload(
        "seq_dense_flat", _dense(seed, smoke, RuntimeSpec(kernel="flat")), cross_check=True
    )


def _smp_dense_w2(seed, smoke):
    runtime = RuntimeSpec(backend="smp", workers=2, kernel="compiled")
    return Workload("smp_dense_w2", _dense(seed, smoke, runtime), cross_check=True)


def _seq_sparse(seed, smoke):
    return Workload("seq_sparse", _simmering(seed, smoke, _generated(200_000, smoke), 14))


def _streamed_memmap(seed, smoke):
    population = PopulationSpec(
        kind="streamed", n_persons=_persons(500_000, smoke), seed=POPULATION_SEED,
        backing="memmap",
    )
    return Workload("streamed_memmap", _simmering(seed, smoke, population, 4))


def _charm_gp_split(seed, smoke):
    population = _generated(10_000, smoke)
    return Workload("charm_gp_split", RunSpec(
        population=population,
        partition=PartitionSpec("gp", k=16, split=True),
        n_days=3 if smoke else 8, seed=seed,
        initial_infections=population.n_persons // 100,
        runtime=RuntimeSpec(backend="charm", workers=16, kernel="compiled"),
    ), cross_check=True)


def _sweep_small(seed, smoke):
    # Defaults (10 index cases): 32 different epidemics average out by
    # themselves, and short cheap runs keep the per-run fixed cost on top.
    base = RunSpec(
        population=_generated(8_000, smoke), n_days=3 if smoke else 12, seed=seed,
        runtime=_COMPILED,
    )
    return Workload("sweep_small", base, sweep=SweepConfig(
        base=base,
        grid={"transmissibility": [1e-4, 2e-4, 3e-4, 4e-4]},
        replications=2 if smoke else 8,
        master_seed=seed,
        name="sweep_small",
    ))


_BUILDERS = {
    "seq_dense_compiled": _seq_dense_compiled,
    "seq_dense_flat": _seq_dense_flat,
    "seq_sparse": _seq_sparse,
    "smp_dense_w2": _smp_dense_w2,
    "charm_gp_split": _charm_gp_split,
    "streamed_memmap": _streamed_memmap,
    "sweep_small": _sweep_small,
}

NAMES = tuple(_BUILDERS)


def build(name: str, seed: int = DEFAULT_SEED, smoke: bool = False) -> Workload:
    """The named workload for ``seed`` (same seed, same inputs)."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r} (expected one of {NAMES})")
    return _BUILDERS[name](seed, smoke)
