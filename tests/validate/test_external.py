"""External distribution oracle: power, calibration and determinism.

The mutation tests are the subsystem's reason to exist: an oracle that
cannot flag a deliberately broken model is decoration.  Each supported
model-side bug injection must flip the verdict on the *same*
configuration that passes for the unmodified model — same seeds, same
replication counts, same thresholds.
"""

import multiprocessing
import os
import signal

import numpy as np
import pytest

import repro.lab.pool
from repro.lab import LabWorkerError
from repro.util.rng import RngFactory, derive_seed
from repro.validate.external import (
    _SALT_MODEL,
    BASELINES,
    EXTERNAL_PRESETS,
    MUTATIONS,
    run_external_oracle,
)

#: One shared configuration: small enough for CI, powerful enough that
#: both mutations separate the distributions completely.
CONFIG = dict(
    presets=("tiny",),
    n_days=10,
    replications=16,
    seed=0,
    tiny_persons=200,
    heavy_tail=False,
)


@pytest.fixture(scope="module")
def clean_report():
    return run_external_oracle(**CONFIG)


class TestUnmodifiedModelPasses:
    def test_all_cells_agree(self, clean_report):
        assert clean_report.all_equal, clean_report.format()
        assert len(clean_report.cells) == len(BASELINES)

    def test_report_is_structured(self, clean_report):
        text = clean_report.format()
        assert "external distribution oracle" in text
        assert "indistinguishable" in text
        for cell in clean_report.cells:
            assert cell.model_final_sizes.shape == (CONFIG["replications"],)
            assert cell.model_prevalence.shape == (
                CONFIG["replications"], CONFIG["n_days"],
            )
            # final-size (KS + AD in one comparison) and trajectory
            assert len(cell.comparisons) == 2
            assert [c.metric for c in cell.comparisons] == [
                "final-size", "prevalence",
            ]

    def test_full_preset_list_is_exported(self):
        assert EXTERNAL_PRESETS == ("tiny", "heavy")


class TestOraclePower:
    """Injected model bugs must be flagged by the same configuration."""

    @pytest.mark.parametrize("mutation", MUTATIONS)
    def test_mutation_is_flagged(self, mutation):
        report = run_external_oracle(mutation=mutation, **CONFIG)
        assert not report.all_equal, (
            f"oracle failed to flag injected mutation {mutation!r}:\n"
            + report.format()
        )
        # The verdict is carried by the statistics, not a side channel:
        # at least one comparison in some cell rejects.
        assert any(c.reject for cell in report.cells for c in cell.comparisons)
        assert report.mutation == mutation
        assert mutation in report.format()

    def test_unknown_mutation_rejected(self):
        with pytest.raises(ValueError, match="unknown mutation"):
            run_external_oracle(mutation="swap_sign", **CONFIG)


class TestDeterminism:
    def test_worker_counts_are_bit_identical(self):
        reports = [
            run_external_oracle(workers=w, **CONFIG) for w in (1, 2)
        ]
        for a, b in zip(reports[0].cells, reports[1].cells):
            assert np.array_equal(a.model_final_sizes, b.model_final_sizes)
            assert np.array_equal(a.model_prevalence, b.model_prevalence)
            assert np.array_equal(a.baseline_final_sizes, b.baseline_final_sizes)
            assert [c.ks_pvalue for c in a.comparisons] == [
                c.ks_pvalue for c in b.comparisons
            ]

    def test_same_seed_same_report(self, clean_report):
        again = run_external_oracle(**CONFIG)
        for a, b in zip(clean_report.cells, again.cells):
            assert np.array_equal(a.model_final_sizes, b.model_final_sizes)
            assert [(c.ks, c.ks_pvalue, c.ad, c.ad_pvalue) for c in a.comparisons] \
                == [(c.ks, c.ks_pvalue, c.ad, c.ad_pvalue) for c in b.comparisons]


class TestWorkerDeath:
    def test_killed_worker_raises_with_its_rank(self, monkeypatch):
        """A model replication whose worker is SIGKILLed surfaces as
        ``LabWorkerError`` naming that worker, and leaves no child alive
        (a fork ``Pool`` waits for the lost task forever)."""
        doomed = derive_seed(0, RngFactory.BASELINE, 1, _SALT_MODEL)  # task 1 -> worker 1
        execute = repro.lab.pool.execute

        def execute_or_die(spec, cache=None):
            if spec.seed == doomed:
                os.kill(os.getpid(), signal.SIGKILL)
            return execute(spec, cache=cache)

        def hung(signum, frame):
            raise TimeoutError("the oracle hung on a dead worker")

        # patched before the pool forks, so the workers inherit it
        monkeypatch.setattr(repro.lab.pool, "execute", execute_or_die)
        before = set(multiprocessing.active_children())
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        try:
            with pytest.raises(LabWorkerError, match="worker 1 died") as err:
                run_external_oracle(workers=2, presets=("tiny",), n_days=4, replications=4,
                                    tiny_persons=60, heavy_tail=False)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert (err.value.rank, err.value.exitcode) == (1, -signal.SIGKILL)
        assert set(multiprocessing.active_children()) <= before


class TestGuards:
    def test_under_resolved_permutations_rejected(self):
        with pytest.raises(ValueError, match="cannot resolve"):
            run_external_oracle(n_permutations=50, **CONFIG)

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="unknown presets"):
            run_external_oracle(presets=("tiny", "galaxy"))
