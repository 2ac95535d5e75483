"""Replicate studies on the lab: one spec over seeds, policies on
common seeds, and the numpy/stdlib statistics that summarise them."""

import dataclasses

import numpy as np
import pytest

from repro.lab import WorkerPool, compare_policies, run_replicates
from repro.lab.replicates import _paired_p
from repro.spec import PopulationSpec, RunSpec

#: ~300 persons — the tiny_graph fixture's population, as a spec.
TINY = RunSpec(
    population=PopulationSpec(n_persons=300, seed=11, name="tiny"),
    n_days=20,
    initial_infections=5,
)


def _spec(rate=2e-4, interventions=""):
    return dataclasses.replace(TINY, transmissibility=rate, interventions=interventions)


class TestRunReplicates:
    def test_shapes(self):
        s = run_replicates(_spec(), range(3))
        assert s.n_replicates == 3
        assert s.n_persons == 300
        assert s.new_infections.shape == (3, 20)
        assert s.attack_rates.shape == (3,)
        assert s.mean_curve.shape == (20,)

    def test_replicates_differ_across_seeds(self):
        s = run_replicates(_spec(), range(4))
        assert np.ptp(s.attack_rates) > 0

    def test_same_seed_identical(self):
        s = run_replicates(_spec(), [7, 7])
        np.testing.assert_array_equal(s.new_infections[0], s.new_infections[1])

    def test_ci_contains_mean(self):
        s = run_replicates(_spec(), range(5))
        lo, hi = s.attack_rate_ci()
        assert lo <= s.mean_attack_rate <= hi

    def test_band_orders(self):
        s = run_replicates(_spec(), range(4))
        lo, hi = s.curve_band()
        assert np.all(lo <= hi)

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError):
            run_replicates(_spec(), [])

    def test_inline_equals_pool(self):
        """The inline map the harness runs equals a two-worker pool."""
        specs = [dataclasses.replace(_spec(), seed=s) for s in range(4)]
        with WorkerPool(2) as pool:
            pooled = pool.map(specs)
        s = run_replicates(_spec(), range(4))
        np.testing.assert_array_equal(
            s.new_infections, [r.new_infections for r in pooled]
        )
        np.testing.assert_array_equal(
            s.attack_rates, [r.total_infections / 300 for r in pooled]
        )


class TestComparePolicies:
    def test_vaccination_beats_baseline(self):
        policies = {
            "baseline": _spec(rate=3e-4),
            "vax": _spec(rate=3e-4, interventions="vaccinate coverage=0.9 day=0"),
        }
        summaries, contrasts = compare_policies(policies, range(4))
        assert summaries["vax"].mean_attack_rate < summaries["baseline"].mean_attack_rate
        (c,) = contrasts
        assert c.mean_difference > 0  # baseline − vax

    def test_identical_policies_not_significant(self):
        _, contrasts = compare_policies({"a": _spec(), "b": _spec()}, range(3))
        assert contrasts[0].p_value == 1.0
        assert not contrasts[0].significant


#: (a, b, two-sided p) recorded from ``scipy.stats.ttest_rel(a, b)``.
_K = np.arange(30)
PAIRED_T = [
    ([0.30, 0.42], [0.21, 0.40], 0.3607910254538724),
    ([0.30, 0.42, 0.35], [0.21, 0.40, 0.30], 0.11922898789891166),
    ([0.31, 0.29, 0.35, 0.33, 0.30, 0.36, 0.28, 0.34],
     [0.25, 0.27, 0.30, 0.31, 0.22, 0.33, 0.26, 0.29], 0.0012163045351376528),
    (0.3 + 0.02 * np.sin(_K), 0.29 + 0.02 * np.cos(0.7 * _K), 0.007117384385917301),
    ([0.2, 0.4, 0.1, 0.5], [0.3, 0.3, 0.2, 0.4], 0.9999999999999999),  # t = 0
]


@pytest.mark.parametrize("a, b, p", PAIRED_T, ids=["n2", "n3", "n8", "n30", "t0"])
def test_paired_p_value_is_pinned(a, b, p):
    assert _paired_p(np.asarray(a), np.asarray(b)) == pytest.approx(p, abs=1e-9)
