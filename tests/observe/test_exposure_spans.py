"""What is visible inside ``exposure.compute`` — and what the ladder reads.

The stage spans must account for the phase (a layer with no row is a
layer nobody can optimise), and the two things ``benchmarks/ladder``
derives its exposure rows from — the size of the first positional
argument of each pair-stage entry point, and the ``visits`` /
``infections`` attributes of ``exposure.compute`` — must keep meaning
what the program's own counters say.
"""

import collections

import numpy as np
import pytest

from repro import observe
from repro.core import ckernel, exposure
from repro.core import day as day_steps
from repro.spec import PopulationSpec, RunSpec, RuntimeSpec, execute

STAGES = {
    # pairs come in summation order: no pair sort
    "flat": {"filter", "gather", "pairs", "reduce", "draw", "emit"},
    # the walk, then the C accumulation straight from its rows: no
    # column gather and no slot sort
    "compiled": {"filter", "pairs", "reduce", "draw", "emit"},
}

kernels = pytest.mark.parametrize(
    "kernel",
    [
        "flat",
        pytest.param(
            "compiled",
            marks=pytest.mark.skipif(
                not ckernel.available(), reason=f"no compiled kernel: {ckernel.build_error()}"
            ),
        ),
    ],
)


@pytest.fixture(scope="module")
def simmering():
    """20K persons, 2% index cases at low transmissibility: big enough
    that a stage outweighs the Python between two spans."""
    population = PopulationSpec(kind="generated", n_persons=20_000, seed=20140519)
    graph = population.build()

    def run(kernel):
        spec = RunSpec(
            population=population, n_days=4, seed=5, initial_infections=400,
            transmissibility=2.5e-5, runtime=RuntimeSpec(kernel=kernel),
        )
        return execute(spec, graph=graph)

    run.graph = graph
    return run


def _durations(obs):
    total = collections.defaultdict(float)
    for s in obs.closed_spans():
        total[s.name] += s.duration
    return total


@kernels
def test_stage_spans_tile_the_phase(simmering, kernel):
    simmering(kernel)  # warm: first-call imports, the C library load
    with observe.observing() as obs:
        simmering(kernel)
    total = _durations(obs)
    stages = {f"exposure.{name}" for name in STAGES[kernel]}
    assert stages <= set(total)
    assert sum(total[name] for name in stages) >= 0.95 * total["exposure.compute"]
    # each stage is a direct child of the phase, so none is counted twice
    spans = obs.spans
    assert {spans[s.parent].name for s in spans if s.name in stages} == {"exposure.compute"}


def test_index_build_is_a_span_inside_the_first_filter(simmering):
    """The walk's index is built by the first location phase that needs
    it — inside ``run_s``, visible as its own row — and never again."""
    simmering.graph.invalidate_indexes()
    with observe.observing() as obs:
        simmering("flat")
    spans = obs.spans
    builds = [s for s in obs.closed_spans() if s.name == "graph.block_index"]
    assert [spans[s.parent].name for s in builds] == ["exposure.filter"]
    assert builds[0].attrs["visits"] == simmering.graph.n_visits
    assert builds[0].attrs["blocks"] == int(simmering.graph.location_n_sublocs.sum())
    assert spans[builds[0].parent].start == min(
        s.start for s in obs.closed_spans() if s.name == "exposure.filter"
    )
    with observe.observing() as obs:
        simmering("flat")
    assert "graph.block_index" not in {s.name for s in obs.closed_spans()}


def test_stage_names_do_not_collide_with_the_ladder_shims():
    """The ladder sums spans by name; a stage sharing a shim's key
    would be counted into that shim's row."""
    SHIMS = pytest.importorskip("benchmarks.ladder.layers").SHIMS
    stages = {f"exposure.{n}" for names in STAGES.values() for n in names}
    assert not stages & {shim.key for shim in SHIMS}


@kernels
def test_what_the_ladder_reads(simmering, kernel, monkeypatch):
    """``layers.SHIMS`` wraps the two pair-stage entry points through
    their module attributes and takes ``args[0].size`` as the kernel's
    active set; that must be the ``exposure.candidates`` counter."""
    seen = {"arg0": 0, "calls": []}

    def sized(fn):
        def wrapper(*args, **kwargs):
            seen["arg0"] += args[0].size
            return fn(*args, **kwargs)
        return wrapper

    def recording(fn):
        def wrapper(graph, *args, **kwargs):
            result = fn(graph, *args, **kwargs)
            removed = kwargs["removed"]
            handed = graph.n_visits - (0 if removed is None else int(removed.sum()))
            seen["calls"].append((handed, len(result.infections)))
            return result
        return wrapper

    monkeypatch.setattr(ckernel, "accumulate_exposures", sized(ckernel.accumulate_exposures))
    monkeypatch.setattr(
        exposure, "blocked_pairwise_exposures", sized(exposure.blocked_pairwise_exposures)
    )
    monkeypatch.setattr(day_steps, "compute_infections", recording(exposure.compute_infections))
    with observe.observing() as obs:
        simmering(kernel)

    assert seen["arg0"] == obs.counters["exposure.candidates"] > 0
    phases = [s for s in obs.closed_spans() if s.name == "exposure.compute"]
    assert [(s.attrs["visits"], s.attrs["infections"]) for s in phases] == seen["calls"]
    assert sum(visits for visits, _ in seen["calls"]) == obs.counters["exposure.visits"]
    assert sum(infections for _, infections in seen["calls"]) > 0
    # the filter is the point: most gathered visits cannot transmit
    assert obs.counters["exposure.candidates"] < 0.25 * obs.counters["exposure.visits"]
    assert 0 < obs.counters["exposure.active_blocks"] <= obs.counters["exposure.candidates"]
    # ... and the walk does not read them to find that out: it touches
    # the infectious persons' rows and the rows of their blocks
    assert (
        obs.counters["exposure.candidates"]
        < obs.counters["exposure.walk_rows"]
        < 0.3 * obs.counters["exposure.visits"]
    )


@pytest.mark.skipif(not ckernel.available(), reason=f"no compiled kernel: {ckernel.build_error()}")
def test_multi_slots_counts_the_row_order_re_adds(simmering, monkeypatch):
    """``exposure.multi_slots``: the slots with a pair whose person has
    two or more susceptible candidate visits at the location, counted
    here from the rows handed to the C loop."""
    expected = []
    real = ckernel.accumulate_exposures

    def counting(rows, bptr, graph, health_state, disease, *args, **kwargs):
        out = real(rows, bptr, graph, health_state, disease, *args, **kwargs)
        person = graph.visit_person[rows]
        sus = disease.is_susceptible[health_state[person]]
        key = graph.visit_location[rows][sus] * graph.n_persons + person[sus]
        visits, count = np.unique(key, return_counts=True)
        expected.append(int(np.isin(out[0], visits[count > 1]).sum()))
        return out

    monkeypatch.setattr(ckernel, "accumulate_exposures", counting)
    with observe.observing() as obs:
        simmering("compiled")
    assert sum(expected) == obs.counters["exposure.multi_slots"] > 0


@pytest.mark.skipif(not ckernel.available(), reason=f"no compiled kernel: {ckernel.build_error()}")
def test_partner_records_counts_what_the_filter_reads(simmering, monkeypatch):
    """``exposure.partner_records``: per susceptible candidate visit, the
    infectious candidates of its ``(location, sublocation)`` block, once
    for its partial and once more for each re-add (every visit but the
    first by row of a person with two or more at the location), counted
    here by brute force from the rows handed to the C loop."""
    expected, pairs = [], []
    real = ckernel.accumulate_exposures

    def counting(rows, bptr, graph, health_state, disease, *args, **kwargs):
        out = real(rows, bptr, graph, health_state, disease, *args, **kwargs)
        pairs.append(int(out[3].sum()))
        person = graph.visit_person[rows]
        state = health_state[person]
        loc, sub = graph.visit_location[rows], graph.visit_subloc[rows]
        blocks, block = np.unique(np.stack([loc, sub]), axis=1, return_inverse=True)
        infectious = np.bincount(block[disease.is_infectious[state]], minlength=blocks.shape[1])
        sus = np.flatnonzero(disease.is_susceptible[state])
        reads = infectious[block[sus]]
        slot = loc[sus] * graph.n_persons + person[sus]
        by_row = np.lexsort((rows[sus], slot))
        later = np.r_[False, slot[by_row][1:] == slot[by_row][:-1]]
        expected.append(int(reads.sum() + reads[by_row][later].sum()))
        assert out[5] == expected[-1]
        return out

    monkeypatch.setattr(ckernel, "accumulate_exposures", counting)
    with observe.observing() as obs:
        simmering("compiled")
    assert sum(expected) == obs.counters["exposure.partner_records"] > 0
    # the filter reads more records than it keeps pairs
    assert obs.counters["exposure.partner_records"] > sum(pairs) > 0
