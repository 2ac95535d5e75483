"""Analysis layer: the quantities the paper's figures plot.

* :mod:`repro.analysis.speedup` — S_ub upper-bound speedups and the
  §III-B analytic scalability bound (Figures 4, 5, 8);
* :mod:`repro.analysis.distributions` — log-binned degree and load
  distributions (Figures 3c/d, 7a/b);
* :mod:`repro.analysis.edgecut` — per-partition edge-cut sweeps
  (Figure 14);
* :mod:`repro.analysis.scaling` — the phase-cost analytic execution
  model and strong-scaling harness (Figures 12, 13, headline
  speedups), validated against the runtime simulator.

Replicate ensembles and policy contrasts are lab tasks:
:mod:`repro.lab.replicates`.
"""

from repro.analysis.speedup import (
    upper_bound_speedup,
    speedup_bound_curve,
    sub_over_d,
    analytic_sub_over_d_bound,
    lpt_location_partition,
)
from repro.analysis.distributions import degree_distribution, load_distribution
from repro.analysis.edgecut import edge_cut_sweep, EdgeCutPoint
from repro.analysis.scaling import (
    PhaseCostModel,
    DayTimeBreakdown,
    ScalingPoint,
    strong_scaling_curve,
    speedup_table,
)
from repro.analysis.theory import (
    PowerLawTheory,
    characteristic_dmax,
    expected_max_degree,
    empirical_tail,
)

__all__ = [
    "upper_bound_speedup",
    "speedup_bound_curve",
    "sub_over_d",
    "analytic_sub_over_d_bound",
    "lpt_location_partition",
    "degree_distribution",
    "load_distribution",
    "edge_cut_sweep",
    "EdgeCutPoint",
    "PhaseCostModel",
    "DayTimeBreakdown",
    "ScalingPoint",
    "strong_scaling_curve",
    "speedup_table",
    "PowerLawTheory",
    "characteristic_dmax",
    "expected_max_degree",
    "empirical_tail",
]
