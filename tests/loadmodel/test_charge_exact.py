"""The LocationManager charge: one array evaluation == the scalar loop.

``ComputeCostModel.location_costs`` evaluates the static and dynamic
load models once over the day's per-location arrays — every location,
all LocationManagers at once — and ``phase_charge`` sums one LM's slice
with ``np.cumsum(...)[-1]``.  The simulated runtime's virtual time is
that number, so it must equal — bit for bit, not approximately — the
loop it replaced (kept in ``tests/core/visit_loop_reference.py``, with
the per-LM evaluation that came between)::

    compute = 0.0
    for e, i in zip(events, interactions):
        compute += float(static.evaluate(float(e))) + float(dynamic.evaluate(e, i))
"""

import math
import sys

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.parallel import ComputeCostModel
from tests.core.visit_loop_reference import location_charge
from repro.loadmodel.dynamic import DynamicLoadModel
from repro.loadmodel.static import PiecewiseLoadModel

MAX_COUNT = 10**7


def _loop(costs: ComputeCostModel, events, interactions) -> float:
    """The scalar per-location loop, over Python ints as the Counters
    held them."""
    static, dynamic = costs.location_static, costs.location_dynamic
    compute = 0.0
    for e, i in zip(events, interactions):
        compute += float(static.evaluate(float(e))) + float(dynamic.evaluate(e, i))
    return compute


def _charge(costs: ComputeCostModel, events, interactions) -> float:
    return costs.phase_charge(costs.location_costs(
        np.asarray(events, dtype=np.float64), np.asarray(interactions, dtype=np.int64)
    ))


@st.composite
def _models_and_counts(draw):
    """Random static / dynamic parameters (``mu`` ≠ 1 included) and
    integer event / interaction counts, biased to the crossover band
    and to the ``±500·τ`` edges where the sigmoid's clip engages."""
    crossover = draw(st.floats(1.0, 1e5))
    width = draw(st.floats(1e-2, 1e4))
    mu = draw(st.one_of(st.just(1.0), st.floats(0.05, 20.0)))
    static = PiecewiseLoadModel(
        intercept_a=draw(st.floats(-1e-3, 1e-3)),
        slope_a=draw(st.floats(0.0, 1e-5)),
        intercept_b=draw(st.floats(-1e-3, 1e-3)),
        slope_b=draw(st.floats(0.0, 1e-5)),
        crossover=crossover,
        smoothness=draw(st.floats(0.1, 10.0)),
        transition_width=width,
        mu=mu,
    )
    dynamic = DynamicLoadModel(
        c_events=draw(st.floats(0.0, 1e-6)),
        c_interactions=draw(st.floats(0.0, 1e-6)),
        c_recip=draw(st.floats(0.0, 1e-6)),
    )

    def near(x_prime: float, spread: int) -> st.SearchStrategy:
        centre = min(MAX_COUNT, max(0, int(round(x_prime / mu))))
        return st.integers(max(0, centre - spread), min(MAX_COUNT, centre + spread))

    band = max(2, int(5 * width / mu))
    counts = st.one_of(
        st.integers(0, MAX_COUNT),
        near(crossover, band),
        near(crossover + 500 * width, 2),
        near(crossover - 500 * width, 2),
    )
    n = draw(st.integers(0, 48))
    events = draw(st.lists(counts, min_size=n, max_size=n))
    interactions = draw(st.lists(st.one_of(counts, st.integers(0, 50)), min_size=n, max_size=n))
    return ComputeCostModel(location_static=static, location_dynamic=dynamic), events, interactions


@given(_models_and_counts())
@settings(max_examples=300, deadline=None)
def test_array_evaluation_equals_the_scalar_calls(case):
    costs, events, interactions = case
    ev = np.asarray(events, dtype=np.float64)
    static = costs.location_static.evaluate(ev)
    dynamic = costs.location_dynamic.evaluate(ev, np.asarray(interactions, dtype=np.int64))
    for j, (e, i) in enumerate(zip(events, interactions)):
        assert static[j] == costs.location_static.evaluate(float(e))
        assert dynamic[j] == float(costs.location_dynamic.evaluate(e, i))


@given(_models_and_counts())
@settings(max_examples=300, deadline=None)
def test_charge_equals_the_left_to_right_loop(case):
    costs, events, interactions = case
    assert _charge(costs, events, interactions) == _loop(costs, events, interactions)


@given(_models_and_counts(), st.integers(1, 6), st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_one_evaluation_sliced_per_lm_equals_each_lms_own(case, n_lm, random):
    """The day's one evaluation over every location, sliced per LM in
    location order, charges each LM what evaluating its own locations
    did (``visit_loop_reference.location_charge``) and what the loop
    did; an LM with no location charges 0.0."""
    costs, events, interactions = case
    ev = np.asarray(events, dtype=np.float64)
    it = np.asarray(interactions, dtype=np.int64)
    owner = np.array([random.randrange(n_lm) for _ in events], dtype=np.int64)
    day = costs.location_costs(ev, it)
    for lm in range(n_lm):
        mine = np.flatnonzero(owner == lm)
        charge = costs.phase_charge(day[mine])
        assert charge == location_charge(costs, ev[mine], it[mine])
        assert charge == _loop(costs, [events[j] for j in mine], [interactions[j] for j in mine])


def test_paper_model_through_the_crossover():
    """Every event count 0–20K under the paper's constants, which
    crosses ϕ = 1380 and the whole blend."""
    costs = ComputeCostModel()
    events = np.arange(0, 20_001)
    interactions = (events * 7) % 1_000
    scalar = [float(costs.location_static.evaluate(float(e))) for e in events.tolist()]
    assert scalar == costs.location_static.evaluate(events.astype(np.float64)).tolist()
    loop = _loop(costs, events.tolist(), interactions.tolist())
    assert _charge(costs, events, interactions) == loop


def test_strided_input():
    """A non-contiguous view gives each element the same double."""
    costs = ComputeCostModel()
    rng = np.random.default_rng(5)
    base = rng.zipf(1.6, size=(4_000, 3)).clip(max=MAX_COUNT).astype(np.float64)
    inter = rng.integers(0, 5_000, size=(4_000, 3))
    ev, it = base[::3, 1], inter[::3, 2]
    assert not ev.flags.contiguous
    charge = costs.phase_charge(costs.location_costs(ev, it))
    assert charge == _loop(costs, ev.astype(np.int64).tolist(), it.tolist())


def test_empty_phase_charges_exactly_zero():
    costs = ComputeCostModel()
    charge = costs.phase_charge(costs.location_costs(np.empty(0), np.empty(0, dtype=np.int64)))
    assert type(charge) is float
    assert charge == 0.0 and math.copysign(1.0, charge) == 1.0


def test_the_sequential_sum_is_the_one_chosen():
    """A nine-location phase where the other reductions land one ulp
    away: ``cumsum`` is the loop, ``np.sum`` (pairwise) and
    ``math.fsum`` (exactly rounded) are not, nor is builtin ``sum``
    where it compensates (Python ≥ 3.12)."""
    costs = ComputeCostModel()
    events = [2, 54, 42, 52, 22, 50, 60, 30, 36]
    interactions = [29, 24, 29, 11, 20, 28, 19, 25, 20]
    loop = _loop(costs, events, interactions)
    assert loop == float.fromhex("0x1.7e18fd766aabep-12")
    assert _charge(costs, events, interactions) == loop

    ev = np.asarray(events, dtype=np.float64)
    per = costs.location_static.evaluate(ev) + costs.location_dynamic.evaluate(ev, interactions)
    assert math.fsum(per) == float.fromhex("0x1.7e18fd766aabdp-12") != loop
    assert float(np.sum(per)) != loop
    if sys.version_info >= (3, 12):
        assert sum(per.tolist()) != loop
    else:
        assert sum(per.tolist()) == loop
