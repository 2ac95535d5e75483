"""Static load model: the paper's piecewise-linear/sigmoid form."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.loadmodel.static import PAPER_STATIC_MODEL, PiecewiseLoadModel


class TestPaperModel:
    def test_small_regime_matches_ya(self):
        # Well below the crossover, Y ≈ Ya.
        x = 100.0
        expected = 6.09e-6 + 7.72e-7 * x
        assert PAPER_STATIC_MODEL.evaluate(x) == pytest.approx(expected, rel=1e-3)

    def test_large_regime_matches_yb(self):
        x = 50_000.0
        expected = -1.25e-4 + 8.67e-7 * x
        assert PAPER_STATIC_MODEL.evaluate(x) == pytest.approx(expected, rel=1e-3)

    def test_crossover_is_line_intersection(self):
        m = PAPER_STATIC_MODEL
        x_star = (m.intercept_a - m.intercept_b) / (m.slope_b - m.slope_a)
        assert m.crossover == pytest.approx(x_star, rel=0.01)

    def test_continuous_through_crossover(self):
        m = PAPER_STATIC_MODEL
        xs = np.linspace(m.crossover * 0.5, m.crossover * 1.5, 200)
        ys = m.evaluate(xs)
        rel_jumps = np.abs(np.diff(ys)) / ys[:-1]
        assert rel_jumps.max() < 0.05  # smooth blend, no cliff

    def test_positive_floor(self):
        assert PAPER_STATIC_MODEL.evaluate(0.0) > 0


class TestModelProperties:
    @given(st.floats(1.0, 1e6))
    @settings(max_examples=100, deadline=None)
    def test_nonnegative_everywhere(self, x):
        assert PAPER_STATIC_MODEL.evaluate(x) > 0

    def test_monotone_over_realistic_range(self):
        xs = np.geomspace(1, 1e6, 500)
        ys = PAPER_STATIC_MODEL.evaluate(xs)
        assert np.all(np.diff(ys) >= -1e-12)

    def test_mu_scales_input(self):
        m2 = PiecewiseLoadModel(
            intercept_a=0.0, slope_a=1.0, intercept_b=0.0, slope_b=1.0,
            crossover=100.0, mu=2.0,
        )
        m1 = PiecewiseLoadModel(
            intercept_a=0.0, slope_a=1.0, intercept_b=0.0, slope_b=1.0,
            crossover=100.0, mu=1.0,
        )
        assert m2.evaluate(50.0) == pytest.approx(m1.evaluate(100.0))

    def test_vectorised_matches_scalar(self):
        xs = np.array([10.0, 1000.0, 100000.0])
        ys = PAPER_STATIC_MODEL.evaluate(xs)
        for x, y in zip(xs, ys):
            assert PAPER_STATIC_MODEL.evaluate(float(x)) == float(y)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            PiecewiseLoadModel(0, 1, 0, 1, crossover=-1)
        with pytest.raises(ValueError):
            PiecewiseLoadModel(0, 1, 0, 1, crossover=1, transition_width=0)
