"""Replicate studies: one RunSpec over seeds, policies on common seeds.

EpiSimdemics studies (the paper's §I H1N1 course-of-action analyses)
never rely on a single stochastic run: policies are compared on
replicate ensembles.  Replicate *r* of every policy is the policy's
:class:`~repro.spec.RunSpec` with ``seed = seeds[r]``, every policy ×
seed is one task of one :meth:`WorkerPool.map
<repro.lab.pool.WorkerPool.map>` (so each population is built once),
and the ensembles are summarised as mean/CI trajectories, attack-rate
statistics and paired policy contrasts — in numpy and the stdlib.

Seeds are the caller's, not :func:`~repro.lab.sweep.run_sweep`'s
``derive_seed(master, point, replicate)``: policies as grid points
would not share seeds, and common random numbers are the point.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

import numpy as np

from repro.lab.pool import WorkerPool
from repro.lab.sweep import spec_with
from repro.spec import RunSpec

__all__ = ["ReplicateSummary", "PolicyComparison", "run_replicates", "compare_policies"]


@dataclass
class ReplicateSummary:
    """Ensemble statistics over replicate runs of one spec."""

    n_replicates: int
    n_days: int
    n_persons: int
    #: (replicates, days) matrices
    new_infections: np.ndarray
    prevalence: np.ndarray
    attack_rates: np.ndarray
    peak_days: np.ndarray

    @property
    def mean_curve(self) -> np.ndarray:
        return self.new_infections.mean(axis=0)

    @property
    def mean_attack_rate(self) -> float:
        return float(self.attack_rates.mean())

    def attack_rate_ci(self, level: float = 0.95) -> tuple[float, float]:
        """Normal-approximation confidence interval on the attack rate."""
        if self.n_replicates < 2:
            a = float(self.attack_rates[0])
            return (a, a)
        sem = self.attack_rates.std(ddof=1) / np.sqrt(self.n_replicates)
        z = statistics.NormalDist().inv_cdf(0.5 + level / 2)
        m = self.mean_attack_rate
        return (m - z * sem, m + z * sem)

    def curve_band(self, level: float = 0.9) -> tuple[np.ndarray, np.ndarray]:
        """Pointwise quantile band of daily new infections."""
        lo = np.quantile(self.new_infections, (1 - level) / 2, axis=0)
        hi = np.quantile(self.new_infections, 1 - (1 - level) / 2, axis=0)
        return lo, hi


def _summary(results) -> ReplicateSummary:
    """One policy's ensemble from its replicates' result frames."""
    n_days = len(results[0].new_infections)
    if any(len(r.new_infections) != n_days for r in results):
        raise ValueError("replicates must share a horizon")
    n_persons = sum(results[0].final_histogram.values())
    new = np.array([r.new_infections for r in results], dtype=np.float64)
    return ReplicateSummary(
        n_replicates=len(results),
        n_days=n_days,
        n_persons=n_persons,
        new_infections=new,
        prevalence=np.array([r.prevalence for r in results], dtype=np.float64),
        attack_rates=np.array([r.total_infections / n_persons for r in results]),
        peak_days=np.argmax(new, axis=1),
    )


def _replicate(policies: dict, seeds) -> dict[str, ReplicateSummary]:
    """Every policy × seed as one inline pool map, summarised per policy."""
    seeds = list(seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    specs = [spec_with(spec, "seed", seed) for spec in policies.values() for seed in seeds]
    with WorkerPool(0) as pool:
        results = pool.map(specs)
    n = len(seeds)
    return {name: _summary(results[i * n : (i + 1) * n]) for i, name in enumerate(policies)}


def run_replicates(spec: RunSpec, seeds: list[int] | range) -> ReplicateSummary:
    """Run ``spec`` once per seed (its ``seed`` field replaced)."""
    return _replicate({"": spec}, seeds)[""]


@dataclass(frozen=True)
class PolicyComparison:
    """Attack-rate contrast between two policies on shared seeds."""

    name_a: str
    name_b: str
    mean_difference: float  # attack(a) − attack(b)
    p_value: float

    @property
    def significant(self) -> bool:
        return self.p_value < 0.05


def _t_two_sided_p(t: float, df: int) -> float:
    """``P(|T| ≥ |t|)`` for Student's t with integer ``df`` degrees of
    freedom, in closed form (Abramowitz & Stegun 26.7.3–4).

    >>> round(_t_two_sided_p(12.706204736, 1), 6)
    0.05
    """
    theta = math.atan(abs(t) / math.sqrt(df))
    cos2, odd = math.cos(theta) ** 2, df % 2
    term, series = (math.cos(theta) if odd else 1.0), 0.0
    for j in range(1, df // 2 + 1):
        series += term
        term *= cos2 * (2 * j - 1 + odd) / (2 * j + odd)
    s = math.sin(theta) * series
    inside = 2.0 / math.pi * (theta + s) if odd else s  # P(|T| < |t|)
    return max(0.0, 1.0 - inside)


def _paired_p(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sided paired t-test p-value; with fewer than two pairs or no
    spread, 1.0 when every difference is 0 and 0.0 otherwise."""
    diff = a - b
    if diff.size < 2 or np.ptp(diff) == 0:
        return 1.0 if np.allclose(diff, 0) else 0.0
    t = diff.mean() / (diff.std(ddof=1) / math.sqrt(diff.size))
    return _t_two_sided_p(float(t), diff.size - 1)


def compare_policies(
    policies: dict[str, RunSpec],
    seeds: list[int] | range,
) -> tuple[dict[str, ReplicateSummary], list[PolicyComparison]]:
    """Replicate every policy on the same seeds; paired-test contrasts.

    Using common random numbers (same seeds ⇒ same index cases and, up
    to behaviour changes, the same exposure draws) sharpens the policy
    contrast — the standard variance-reduction trick in simulation
    studies.
    """
    summaries = _replicate(policies, seeds)
    names = list(policies)
    contrasts = []
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            ra, rb = summaries[a].attack_rates, summaries[b].attack_rates
            contrasts.append(
                PolicyComparison(a, b, float((ra - rb).mean()), _paired_p(ra, rb))
            )
    return summaries, contrasts
