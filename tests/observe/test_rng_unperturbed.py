"""Regression: tracing must not perturb the epidemic.

Instrumentation draws no random numbers and every simulation draw is
keyed by stable identifiers, so a traced run must be bit-identical to
an untraced one — the observability layer's no-Heisenberg contract.
"""

import numpy as np
import pytest

from repro import observe
from repro.charm.machine import Machine, MachineConfig
from repro.core import Scenario, SequentialSimulator, TransmissionModel, ckernel
from repro.core.parallel import Distribution, ParallelEpiSimdemics
from repro.partition import partition_bipartite, round_robin_partition


def _scenario(graph):
    return Scenario(
        graph=graph, n_days=4, seed=3, initial_infections=5,
        transmission=TransmissionModel(2e-4),
    )


def _curve_tuple(curve):
    return (tuple(curve.new_infections), tuple(np.round(curve.prevalence, 12)))


class TestSequential:
    def test_traced_equals_untraced(self, tiny_graph):
        plain = SequentialSimulator(_scenario(tiny_graph)).run()
        with observe.observing() as obs:
            traced = SequentialSimulator(_scenario(tiny_graph)).run()
        assert len(obs.closed_spans()) > 0  # tracing actually happened
        assert _curve_tuple(traced.curve) == _curve_tuple(plain.curve)
        assert traced.final_histogram == plain.final_histogram

    def test_exception_inside_span_leaves_rng_untouched(self, tiny_graph):
        # A traced run after a failed traced region must still match.
        with observe.observing():
            try:
                with observe.span("doomed"):
                    raise RuntimeError
            except RuntimeError:
                pass
            traced = SequentialSimulator(_scenario(tiny_graph)).run()
        plain = SequentialSimulator(_scenario(tiny_graph)).run()
        assert _curve_tuple(traced.curve) == _curve_tuple(plain.curve)


class TestKeyedDraws:
    @pytest.mark.parametrize("scenario", ["", "waning-vaccination"])
    def test_traced_c_pass_equals_untraced_definition(self, tiny_graph, monkeypatch, scenario):
        """Every keyed draw through the C pass, traced, against every
        draw through hashlib + ``util.pcg``, untraced: same epidemic.
        The waning scenario adds its campaign-day dwell draws."""
        if not ckernel.available():
            pytest.skip(f"no compiled kernel: {ckernel.build_error()}")
        from repro.scenarios import build_scenario

        def scenario_():
            if not scenario:
                return _scenario(tiny_graph)
            return build_scenario(
                scenario, tiny_graph, n_days=6, seed=3, initial_infections=5,
                transmissibility=2e-4, params={"coverage": 0.5, "day": 1},
            )

        with observe.observing() as obs:
            traced = SequentialSimulator(scenario_()).run()
        assert len(obs.closed_spans()) > 0
        monkeypatch.setattr(ckernel, "available", lambda: False)
        plain = SequentialSimulator(scenario_()).run()
        assert plain.total_infections > 0
        assert _curve_tuple(traced.curve) == _curve_tuple(plain.curve)
        assert traced.final_histogram == plain.final_histogram

    @pytest.mark.parametrize("c_pass", [True, False], ids=["c", "hashlib"])
    def test_keys_counter_is_the_rows_drawn(self, tiny_graph, monkeypatch, c_pass):
        """Every batched draw (PTTS advance / infect, exposure) is one
        ``rng.keyed`` span, and ``rng.keys`` adds up the key rows that
        reached the C pass — or hashlib, with the library off — as
        counted at that call; traced and untraced runs agree."""
        from repro.util import rng as rng_mod

        if c_pass and not ckernel.available():
            pytest.skip(f"no compiled kernel: {ckernel.build_error()}")
        if not c_pass:
            monkeypatch.setattr(ckernel, "available", lambda: False)
        owner, name = (ckernel, "keyed_raw") if c_pass else (rng_mod, "derive_seeds")
        real, rows = getattr(owner, name), []
        monkeypatch.setattr(owner, name, lambda root, keys, *a: rows.append(len(keys)) or real(root, keys, *a))
        plain = SequentialSimulator(_scenario(tiny_graph)).run()
        untraced_rows, rows[:] = sum(rows), []
        with observe.observing() as obs:
            traced = SequentialSimulator(_scenario(tiny_graph)).run()
        assert _curve_tuple(traced.curve) == _curve_tuple(plain.curve)
        assert traced.final_histogram == plain.final_histogram
        spans = [s for s in obs.closed_spans() if s.name == "rng.keyed"]
        assert obs.counters["rng.keys"] == sum(rows) == untraced_rows > 0
        assert [s.attrs["keys"] for s in spans] == rows
        assert {s.attrs["n_out"] for s in spans} == {1, 2}  # exposure / infect, advance
        isa = ckernel.KEYED_ISAS[ckernel.keyed_isa()] if c_pass else "hashlib"
        assert {s.attrs["isa"] for s in spans} == {isa}

    def test_names_are_not_ladder_shim_keys(self):
        """The ladder wraps entry points in spans named by their shim
        key; the program's own names must not collide with them."""
        layers = pytest.importorskip("benchmarks.ladder.layers")
        assert {"rng.keyed", "rng.keys"}.isdisjoint(shim.key for shim in layers.SHIMS)


class TestParallel:
    def _run(self, graph):
        mc = MachineConfig(n_nodes=2, cores_per_node=4, smp=True, processes_per_node=1)
        m = Machine(mc)
        dist = Distribution.from_partition(round_robin_partition(graph, m.n_pes), m)
        return ParallelEpiSimdemics(_scenario(graph), mc, dist).run()

    def test_traced_equals_untraced(self, tiny_graph):
        plain = self._run(tiny_graph)
        with observe.observing() as obs:
            traced = self._run(tiny_graph)
        # the parallel run auto-attached a tracer and ingested it
        assert len(obs.virtual_spans) > 0
        assert _curve_tuple(traced.result.curve) == _curve_tuple(plain.result.curve)

    def test_entry_spans_leave_the_model_untouched(self, tiny_graph):
        """Every scheduler event is one wall-clock ``charm.entry`` span
        beneath ``charm.runtime.run``; modelled time does not notice."""
        plain = self._run(tiny_graph)
        with observe.observing() as obs:
            traced = self._run(tiny_graph)
        assert traced.runtime_stats == plain.runtime_stats
        assert traced.phase_times == plain.phase_times
        entries = [s for s in obs.closed_spans() if s.name == "charm.entry"]
        assert len(entries) == plain.runtime_stats["events"]
        assert {obs.spans[s.parent].name for s in entries} == {"charm.runtime.run"}
        # the phases themselves run inline under their broadcast's span
        assert {"bcast", "recv_batch", "recv_infect"} <= {s.attrs["method"] for s in entries}

    def test_traced_parallel_equals_sequential(self, tiny_graph):
        seq = SequentialSimulator(_scenario(tiny_graph)).run()
        with observe.observing():
            par = self._run(tiny_graph)
        assert par.result.curve == seq.curve


class TestExposure:
    COUNTERS = (
        "exposure.visits", "exposure.candidates", "exposure.active_blocks", "exposure.walk_rows",
    )

    def _phase(self, graph, kernel, masks=True):
        from repro.core import influenza_model
        from repro.core.exposure import compute_infections
        from repro.util.rng import RngFactory
        from tests.core import exposure_reference

        if kernel == "grouped":  # the per-location kernel: a test reference only
            compute_infections = exposure_reference.compute_infections_linear

        disease = influenza_model()
        state, _ = disease.initial_health(graph.n_persons)
        state[::7] = disease.index["infectious_symptomatic"]
        owned = np.ones(graph.n_locations, dtype=bool) if masks else None
        removed = np.zeros(graph.n_visits, dtype=bool) if masks else None
        return compute_infections(
            graph, state, disease, TransmissionModel(2e-3), 0, RngFactory(3),
            owned=owned, removed=removed, collect_stats=True, kernel=kernel,
        )

    @pytest.mark.parametrize("kernel", ["flat", "grouped", "compiled"])
    def test_traced_phase_equals_untraced(self, small_graph, kernel):
        if kernel == "compiled" and not ckernel.available():
            pytest.skip(f"no compiled kernel: {ckernel.build_error()}")
        plain = self._phase(small_graph, kernel)
        with observe.observing() as obs:
            traced = self._phase(small_graph, kernel)
        stages = {s.name for s in obs.closed_spans()}
        assert {"exposure.compute", "exposure.filter", "exposure.pairs"} < stages
        assert len(plain.infections) > 0 and traced.infections == plain.infections
        assert traced.events == plain.events
        assert traced.interactions == plain.interactions

    def test_work_counters_repeat_exactly(self, small_graph):
        """Visits gathered, candidates kept, blocks that can transmit:
        counts of work, equal on every run and under every kernel (None:
        compiled where the C library loads)."""
        seen = []
        for kernel in ("flat", "flat", None):
            with observe.observing() as obs:
                self._phase(small_graph, kernel)
            seen.append({name: obs.counters[name] for name in self.COUNTERS})
        assert seen[0] == seen[1] == seen[2]
        assert seen[0]["exposure.visits"] == small_graph.n_visits
        assert 0 < seen[0]["exposure.active_blocks"] <= seen[0]["exposure.candidates"]
        assert seen[0]["exposure.candidates"] < small_graph.n_visits
        # rows the walk touched: a count of work like the others, the
        # same whether "every visit" arrives as None or as masks
        assert seen[0]["exposure.candidates"] <= seen[0]["exposure.walk_rows"]
        with observe.observing() as obs:
            whole = self._phase(small_graph, "flat", masks=False)
        assert {name: obs.counters[name] for name in self.COUNTERS} == seen[0]
        assert whole.infections == self._phase(small_graph, "flat").infections

    def test_index_build_is_traced_and_changes_nothing(self, small_graph):
        small_graph.invalidate_indexes()
        with observe.observing() as obs:
            traced = self._phase(small_graph, "flat")
        assert "graph.block_index" in {s.name for s in obs.closed_spans()}
        small_graph.invalidate_indexes()
        assert self._phase(small_graph, "flat").infections == traced.infections


class TestPartitioner:
    SPANS = {
        "partition.bisect", "partition.coarsen", "partition.initial",
        "partition.rebalance", "partition.fm_refine",
    }
    COUNTERS = (
        "partition.levels", "partition.hem_matched",
        "partition.fm_passes", "partition.fm_moves", "partition.fm_pushes",
    )

    def _traced(self, graph):
        with observe.observing() as obs:
            part = partition_bipartite(graph, 6)
        return part, obs

    def test_traced_partition_equals_untraced(self, small_graph):
        plain = partition_bipartite(small_graph, 6)
        traced, obs = self._traced(small_graph)
        assert self.SPANS <= {s.name for s in obs.closed_spans()}
        assert np.array_equal(traced.person_part, plain.person_part)
        assert np.array_equal(traced.location_part, plain.location_part)

    def test_work_counters_repeat_exactly(self, small_graph):
        """They count matches, passes, moves and heap pushes, not time:
        the same population gives the same numbers on every build."""
        first = self._traced(small_graph)[1].counters
        second = self._traced(small_graph)[1].counters
        assert all(first[name] > 0 for name in self.COUNTERS)
        assert {n: first[n] for n in self.COUNTERS} == {n: second[n] for n in self.COUNTERS}
