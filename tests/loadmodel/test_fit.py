"""Load-model fitting (the Figure-3a procedure)."""

import numpy as np
import pytest

from repro.loadmodel.fit import fit_piecewise_linear
from repro.loadmodel.static import PAPER_STATIC_MODEL


class TestFit:
    def test_recovers_paper_model_from_its_own_samples(self):
        xs = np.geomspace(10, 2e5, 300)
        ys = np.asarray(PAPER_STATIC_MODEL.evaluate(xs))
        report = fit_piecewise_linear(xs, ys)
        assert report.mean_relative_error < 0.05  # the paper's ~5% figure
        # Slopes of both regimes recovered.
        assert report.model.slope_a == pytest.approx(7.72e-7, rel=0.15)
        assert report.model.slope_b == pytest.approx(8.67e-7, rel=0.15)

    def test_robust_to_noise(self):
        rng = np.random.default_rng(0)
        xs = np.geomspace(10, 2e5, 400)
        ys = np.asarray(PAPER_STATIC_MODEL.evaluate(xs))
        noisy = ys * rng.normal(1.0, 0.05, size=ys.shape)
        report = fit_piecewise_linear(xs, noisy)
        assert report.mean_relative_error < 0.12

    def test_pure_line_fits_perfectly(self):
        xs = np.linspace(1, 100, 50)
        ys = 2.0 + 3.0 * xs
        report = fit_piecewise_linear(xs, ys)
        assert report.mean_relative_error < 1e-9

    def test_requires_enough_samples(self):
        with pytest.raises(ValueError):
            fit_piecewise_linear([1, 2, 3], [1, 2, 3])

    def test_rejects_negative_loads(self):
        with pytest.raises(ValueError):
            fit_piecewise_linear([1, 2, 3, 4], [1, -2, 3, 4])

    def test_mu_applied(self):
        xs = np.geomspace(10, 1e5, 100)
        ys = np.asarray(PAPER_STATIC_MODEL.evaluate(xs))
        # Fitting with mu=2 against x/2 samples should recover the same fit quality.
        report = fit_piecewise_linear(xs / 2.0, ys, mu=2.0)
        assert report.mean_relative_error < 0.05

    def test_report_str(self):
        xs = np.geomspace(10, 1e5, 100)
        ys = np.asarray(PAPER_STATIC_MODEL.evaluate(xs))
        report = fit_piecewise_linear(xs, ys)
        assert "phi" in str(report)


class TestFitAgainstMeasuredKernel:
    def test_fit_real_des_timings(self):
        """Measure the actual interaction kernel and fit the model to it —
        the end-to-end Figure-3a procedure on this machine."""
        import time

        from repro.core.des import blocked_pairwise_exposures

        rng = np.random.default_rng(1)
        sizes = np.unique(np.geomspace(4, 600, 24).astype(int))
        xs, ys = [], []
        for n in sizes:
            order, block = np.arange(n), np.zeros(n, dtype=np.int64)  # one sublocation
            start = rng.integers(0, 700, n)
            end = start + rng.integers(1, 700, n)
            sus = rng.random(n) < 0.7
            inf = ~sus
            t0 = time.perf_counter()
            for _ in range(3):
                blocked_pairwise_exposures(order, block, start, end, sus, inf)
            ys.append((time.perf_counter() - t0) / 3)
            xs.append(2 * n)
        report = fit_piecewise_linear(np.array(xs), np.array(ys))
        # Wall-clock noise is real; just require a sane fit.
        assert report.mean_relative_error < 0.8
        assert report.model.slope_b >= 0
