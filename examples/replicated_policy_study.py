#!/usr/bin/env python
"""Replicated intervention study with confidence intervals.

A single stochastic run can mislead a decision-maker; the paper's H1N1
analyses compared policies over replicate ensembles.  This example
states each policy as a RunSpec, runs every policy across the same
seeds (common random numbers) as lab tasks, and reports attack-rate
confidence intervals plus paired significance tests.

Run:  python examples/replicated_policy_study.py
"""

import dataclasses

from repro.lab import compare_policies
from repro.spec import PopulationSpec, RunSpec

POLICY_SCRIPTS = {
    "baseline": "",
    "school closure": "close_schools prevalence=0.01 duration=28",
    "child vaccination": "vaccinate coverage=0.4 day=0 ages=5-18",
    "combined": """
        vaccinate coverage=0.4 day=0 ages=5-18
        close_schools prevalence=0.01 duration=28
        stay_home compliance=0.5
    """,
}

SEEDS = range(8)

BASE = RunSpec(
    population=PopulationSpec(kind="state", state="WY", scale=2e-3, seed=1),
    n_days=100,
    initial_infections=8,
    transmissibility=1.5e-4,
)


def main() -> None:
    print(f"population: {BASE.population.build().summary()}")
    print(f"replicates: {len(SEEDS)} seeds per policy (common random numbers)\n")

    policies = {
        name: dataclasses.replace(BASE, interventions=script)
        for name, script in POLICY_SCRIPTS.items()
    }
    summaries, contrasts = compare_policies(policies, SEEDS)

    print(f"{'policy':<20} {'attack rate':>12} {'95% CI':>18} {'peak day':>9}")
    for name, s in summaries.items():
        lo, hi = s.attack_rate_ci()
        print(
            f"{name:<20} {s.mean_attack_rate:>11.1%} "
            f"[{lo:>6.1%}, {hi:>6.1%}] {s.peak_days.mean():>9.1f}"
        )

    print("\npairwise contrasts (attack-rate difference, paired t-test):")
    for c in contrasts:
        marker = "*" if c.significant else " "
        print(
            f"  {c.name_a:<18} vs {c.name_b:<18} "
            f"diff={c.mean_difference:+.1%}  p={c.p_value:.3f} {marker}"
        )
    print("\n(* = significant at the 5% level)")


if __name__ == "__main__":
    main()
