"""Flat vs grouped exposure kernel: bit-for-bit equivalence properties.

The flat kernel replaces the per-location Python loop with one global
blocked pass; these properties pin it to the two references it must
match exactly, both kept in ``tests/core``:

* the **grouped** kernel (``exposure_reference``; and therefore the
  golden traces) — identical infection events, in identical order, with
  identical statistics, on adversarially drawn populations, and whole
  runs with it monkeypatched in;
* the **event-driven DES** (``des_reference``) —
  :func:`blocked_pairwise_exposures` must enumerate exactly the
  interaction set :class:`LocationDES` computes per location.  It takes its block segmentation from the caller; here
  that is a test-side ``(location, sublocation)`` lexsort
  (``exposure_reference._segmentation``), and the contact-graph
  projection's ``block_visit_index()`` must give the same arrays as
  that lexsort.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import day as day_steps
from repro.core.des import blocked_pairwise_exposures
from repro.core.exposure import compute_infections
from repro.core.simulator import SequentialSimulator
from repro.util.rng import RngFactory
from tests.strategies import scenarios, visit_graphs

from . import exposure_reference
from .des_reference import LocationDES, pairwise_exposures
from .exposure_reference import _segmentation


def _blocked_pairs(graph, sus, inf):
    """blocked_pairwise_exposures over every visit of ``graph``."""
    return blocked_pairwise_exposures(
        *_segmentation(graph.visit_location, graph.visit_subloc),
        graph.visit_start, graph.visit_end, sus, inf,
    )


def _infection_tuples(result):
    # Order is part of the contract — no sorting here.
    return [(e.person, e.location, e.minute) for e in result.infections]


def _phase_inputs(scenario, infected_frac=0.25):
    g = scenario.graph
    d = scenario.disease
    state, _ = d.initial_health(g.n_persons)
    rng = np.random.default_rng(scenario.seed)
    n_sick = max(1, int(g.n_persons * infected_frac)) if g.n_persons else 0
    if n_sick:
        sick = rng.choice(g.n_persons, n_sick, replace=False)
        state[sick] = d.state_index(d.states[int(np.flatnonzero(d.is_infectious)[0])].name)
    return g, d, state


class TestKernelEquivalence:
    @given(scenarios())
    @settings(max_examples=60, deadline=None)
    def test_same_infections_same_order(self, scenario):
        g, d, state = _phase_inputs(scenario)
        f = RngFactory(scenario.seed)
        grouped = exposure_reference.compute_infections(
            g, state, d, scenario.transmission, 0, f,
            collect_stats=True, kernel="grouped",
        )
        flat = compute_infections(
            g, state, d, scenario.transmission, 0, f,
            collect_stats=True, kernel="flat",
        )
        assert _infection_tuples(flat) == _infection_tuples(grouped)
        assert flat.events == grouped.events
        assert flat.interactions == grouped.interactions

    @given(scenarios())
    @settings(max_examples=20, deadline=None)
    def test_full_run_identical(self, scenario):
        """Whole-simulation differential: curves and final state match."""
        import copy

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(day_steps, "compute_infections", exposure_reference.pinned(
                exposure_reference.compute_infections, "grouped"))
            res_g = SequentialSimulator(copy.deepcopy(scenario), kernel="flat").run()
        res_f = SequentialSimulator(scenario, kernel="flat").run()
        assert res_f.curve.new_infections == res_g.curve.new_infections
        assert res_f.curve.prevalence == res_g.curve.prevalence
        assert res_f.final_histogram == res_g.final_histogram

    @given(visit_graphs())
    @settings(max_examples=40, deadline=None)
    def test_flat_kernel_grouping_invariance(self, graph):
        """Splitting the locations across calls reproduces the
        whole-population flat-kernel call (the parallel-correctness
        keystone, previously asserted only for the grouped kernel)."""
        from repro.core import Scenario, TransmissionModel

        sc = Scenario(
            graph=graph, seed=5, initial_infections=0,
            transmission=TransmissionModel(3e-3),
        )
        g, d, state = _phase_inputs(sc)
        f = RngFactory(sc.seed)
        whole = compute_infections(g, state, d, sc.transmission, 0, f, kernel="flat")
        parts = [
            compute_infections(
                g, state, d, sc.transmission, 0, f,
                owned=np.arange(g.n_locations) % 2 == m, kernel="flat",
            )
            for m in (0, 1)
        ]
        merged = sorted(_infection_tuples(parts[0]) + _infection_tuples(parts[1]))
        assert sorted(_infection_tuples(whole)) == merged


class TestBlockedPairsVsDES:
    @given(visit_graphs(), st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_pair_set_matches_event_driven_sweep(self, graph, seed):
        """blocked_pairwise_exposures over the whole visit set must
        enumerate exactly the interactions the per-location DES finds."""
        rng = np.random.default_rng(seed)
        n = graph.n_visits
        sus = rng.random(n) < 0.5
        inf = ~sus & (rng.random(n) < 0.6)

        s_idx, i_idx, o_start, o_end = _blocked_pairs(graph, sus, inf)
        got = {
            (int(s), int(i), int(a), int(b))
            for s, i, a, b in zip(s_idx, i_idx, o_start, o_end)
        }

        expected = set()
        for loc in range(graph.n_locations):
            rows = np.flatnonzero(graph.visit_location == loc)
            if rows.size == 0:
                continue
            interactions = LocationDES().run(
                graph.visit_subloc[rows], graph.visit_start[rows],
                graph.visit_end[rows], sus[rows], inf[rows],
            )
            for x in interactions:
                expected.add(
                    (int(rows[x.sus_visit]), int(rows[x.inf_visit]),
                     x.overlap_start, x.overlap_end)
                )
        assert got == expected

    @given(visit_graphs())
    @settings(max_examples=40, deadline=None)
    def test_matches_per_location_vectorised_reference(self, graph):
        rng = np.random.default_rng(graph.n_visits)
        n = graph.n_visits
        sus = rng.random(n) < 0.4
        inf = rng.random(n) < 0.4  # deliberately allows sus&inf overlap

        s_idx, i_idx, o_start, o_end = _blocked_pairs(graph, sus, inf)
        got = set(zip(s_idx.tolist(), i_idx.tolist(), o_start.tolist(), o_end.tolist()))

        expected = set()
        for loc in range(graph.n_locations):
            rows = np.flatnonzero(graph.visit_location == loc)
            s, i, a, b = pairwise_exposures(
                graph.visit_subloc[rows], graph.visit_start[rows],
                graph.visit_end[rows], sus[rows], inf[rows],
            )
            expected |= set(
                zip(rows[s].tolist(), rows[i].tolist(), a.tolist(), b.tolist())
            )
        assert got == expected

    def test_empty_and_degenerate_inputs(self):
        empty = np.empty(0, dtype=np.int64)
        out = blocked_pairwise_exposures(
            empty, empty, empty, empty,
            np.empty(0, dtype=bool), np.empty(0, dtype=bool),
        )
        assert all(a.size == 0 for a in out)
        # One susceptible alone: no pairs.
        one = np.zeros(1, dtype=np.int64)
        out = blocked_pairwise_exposures(
            one, one, one, one + 5, np.array([True]), np.array([False])
        )
        assert all(a.size == 0 for a in out)

    def test_projection_on_the_block_index_equals_the_lexsort(self, small_graph, monkeypatch):
        """project_contact_graph segments by ``block_visit_index()``; the
        lexsort segmentation over every visit gives the same bytes."""
        from repro.baselines import projection

        got = projection.project_contact_graph(small_graph)
        real = projection.blocked_pairwise_exposures

        def lexsorted(order, block_id, *rest):
            return real(*_segmentation(small_graph.visit_location, small_graph.visit_subloc), *rest)

        monkeypatch.setattr(projection, "blocked_pairwise_exposures", lexsorted)
        expected = projection.project_contact_graph(small_graph)
        assert got.n_edges > 1000
        for name in ("indptr", "indices", "weights"):
            a, b = getattr(got, name), getattr(expected, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
