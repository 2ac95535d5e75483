"""Figure 3 — the load model and the input distributions.

(a) static model fit against measured location-kernel timings (paper:
    ~5% mean error on Blue Waters; we refit the same functional form on
    this host's measurements of the actual interaction kernel);
(b) dynamic model — run-time statistics (interactions) correlate with
    measured cost; we report the fitted linear coefficients;
(c) in-degree distribution per state (log-binned);
(d) static load distribution per state.
"""

import time

import numpy as np

from repro.analysis.distributions import degree_distribution, load_distribution
from repro.core.des import blocked_pairwise_exposures
from repro.loadmodel.fit import fit_piecewise_linear
from repro.util.histogram import fit_powerlaw_exponent


def _measure_kernel(sizes, repeats=5, seed=0):
    """Wall-time the pair enumerator the location phase runs
    (``blocked_pairwise_exposures``) on one one-room location of each size."""
    rng = np.random.default_rng(seed)
    xs, ys, inters = [], [], []
    for n in sizes:
        order, block = np.arange(n), np.zeros(n, dtype=np.int64)  # one sublocation
        start = rng.integers(0, 700, n)
        end = start + rng.integers(30, 700, n)
        sus = rng.random(n) < 0.8
        inf = ~sus
        t0 = time.perf_counter()
        for _ in range(repeats):
            out = blocked_pairwise_exposures(order, block, start, end, sus, inf)
        ys.append((time.perf_counter() - t0) / repeats)
        xs.append(2 * n)  # events = 2 x visits
        inters.append(len(out[0]))
    return np.array(xs, dtype=float), np.array(ys), np.array(inters, dtype=float)


def test_fig3a_static_model_fit(benchmark, report):
    sizes = np.unique(np.geomspace(4, 1500, 30).astype(int))

    def fit():
        xs, ys, _ = _measure_kernel(sizes)
        return fit_piecewise_linear(xs, ys), xs, ys

    fit_report, xs, ys = benchmark.pedantic(fit, rounds=1, iterations=1)
    m = fit_report.model
    report("Figure 3(a) — static load model fit (this host)")
    report(str(fit_report))
    report("")
    report(f"{'events':>8} {'measured(s)':>12} {'predicted(s)':>13} {'err':>7}")
    for x, y in list(zip(xs, ys))[::4]:
        p = float(m.evaluate(x))
        report(f"{int(x):>8} {y:>12.3e} {p:>13.3e} {abs(p - y) / y:>6.1%}")
    report("")
    report("paper reports ~5% mean error for its fit on Blue Waters")
    # Wall-clock measurement noise on shared machines is real; the fit
    # must at least be structurally sane and far better than a constant.
    assert fit_report.mean_relative_error < 0.5
    assert m.slope_b > 0


def test_fig3b_dynamic_model(benchmark, report):
    sizes = np.unique(np.geomspace(16, 1500, 24).astype(int))

    def fit():
        xs, ys, inters = _measure_kernel(sizes, seed=3, repeats=9)
        # Relative-error weighted least squares (events and interactions
        # are collinear and span decades — unweighted OLS lets the
        # largest samples swamp the fit, cf. repro.loadmodel.fit):
        # load ~ c0 + c1*events + c2*interactions.
        A = np.stack([np.ones_like(xs), xs, inters], axis=1)
        w = 1.0 / ys
        coef, *_ = np.linalg.lstsq(A * w[:, None], ys * w, rcond=None)
        pred = A @ coef
        err = np.abs(pred - ys) / ys
        corr = float(np.corrcoef(pred, ys)[0, 1])
        return coef, float(err.mean()), corr

    coef, err, corr = benchmark.pedantic(fit, rounds=1, iterations=1)
    report("Figure 3(b) — dynamic load model (events + interactions)")
    report(f"c0={coef[0]:.3e}  c_events={coef[1]:.3e}  c_interactions={coef[2]:.3e}")
    report(f"mean relative error: {err:.1%}; corr(pred, measured) = {corr:.3f}")
    report("(run-time statistics predict location cost — but are only")
    report(" available online, so the static model drives partitioning)")
    assert corr > 0.8
    assert err < 0.8


def test_fig3cd_distributions(benchmark, state_graphs, report):
    def build():
        out = {}
        for state, g in state_graphs.items():
            deg = degree_distribution(g)
            load = load_distribution(g)
            ind = g.location_in_degrees()
            beta = fit_powerlaw_exponent(ind[ind >= 3].astype(float), xmin=3.0)
            out[state] = (deg, load, beta, int(ind.max()))
        return out

    out = benchmark.pedantic(build, rounds=1, iterations=1)
    report("Figure 3(c,d) — location in-degree & static load distributions")
    report(f"{'state':>6} {'max in-degree':>14} {'tail beta':>10} "
           f"{'deg decades':>12} {'load decades':>13}")
    for state, (deg, load, beta, dmax) in out.items():
        report(
            f"{state:>6} {dmax:>14} {beta:>10.2f} "
            f"{np.log10(deg.edges[-1] / deg.edges[0]):>12.1f} "
            f"{np.log10(load.edges[-1] / load.edges[0]):>13.1f}"
        )
        assert beta > 1.0  # heavy-tailed, as the paper's Figure 3(c)
        assert dmax > 50
