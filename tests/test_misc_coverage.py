"""Error paths and format guards not covered elsewhere."""

import json

import numpy as np
import pytest

from repro.synthpop import save_population


class TestFormatGuards:
    def test_population_format_version_rejected(self, tmp_path, tiny_graph):
        from repro.synthpop import load_population

        path = save_population(tiny_graph, tmp_path / "pop.d")
        # Corrupt the header's version.
        header = json.loads((path / "header.json").read_text())
        header["format_version"] = 999
        (path / "header.json").write_text(json.dumps(header))
        with pytest.raises(ValueError, match="format version"):
            load_population(path)

    def test_checkpoint_format_version_rejected(self, tmp_path, tiny_scenario):
        from repro.core.checkpoint import load_checkpoint, save_checkpoint
        from repro.core.simulator import SequentialSimulator

        sim = SequentialSimulator(tiny_scenario)
        sim.step_day()
        path = tmp_path / "ck.npz"
        save_checkpoint(sim, path)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        header = json.loads(bytes(arrays["header"].tobytes()).decode())
        header["format_version"] = 999
        arrays["header"] = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
        np.savez_compressed(path, **arrays)
        with pytest.raises(ValueError, match="checkpoint format"):
            load_checkpoint(tiny_scenario, path)


class TestTorusInScalingModel:
    def test_torus_network_raises_large_machine_day_time(self, tiny_graph):
        """Wiring a torus-derived network into the phase-cost model must
        increase the comm/sync terms on a big machine."""
        from repro.analysis.scaling import PhaseCostModel, machine_for_core_modules
        from repro.charm.machine import Machine
        from repro.charm.network import NetworkModel
        from repro.charm.topology import TorusTopology, torus_network
        from repro.partition import round_robin_partition

        mc = machine_for_core_modules(256)
        m = Machine(mc)
        bp = round_robin_partition(tiny_graph, m.n_pes)
        flat = PhaseCostModel(network=NetworkModel())
        torus = PhaseCostModel(
            network=torus_network(NetworkModel(), TorusTopology.fitting(mc.n_nodes))
        )
        t_flat = flat.day_time(tiny_graph, bp, m)
        t_torus = torus.day_time(tiny_graph, bp, m)
        assert t_torus.sync > t_flat.sync
        assert t_torus.total > t_flat.total


class TestChareArrayGuards:
    def test_out_of_range_element(self):
        from repro.charm import Chare
        from repro.charm.chare import ChareArray

        arr = ChareArray("a", lambda i: Chare(), np.zeros(2, dtype=np.int64))
        with pytest.raises(IndexError):
            arr.element(5)

    def test_empty_placement_rejected(self):
        from repro.charm import Chare
        from repro.charm.chare import ChareArray

        with pytest.raises(ValueError):
            ChareArray("a", lambda i: Chare(), np.empty(0, dtype=np.int64))


class TestScenarioProperties:
    def test_index_cases_deterministic(self, tiny_graph):
        from repro.core import Scenario

        a = Scenario(graph=tiny_graph, seed=9, initial_infections=7)
        b = Scenario(graph=tiny_graph, seed=9, initial_infections=7)
        np.testing.assert_array_equal(a.index_cases(), b.index_cases())

    def test_index_cases_unique(self, tiny_graph):
        from repro.core import Scenario

        cases = Scenario(graph=tiny_graph, seed=2, initial_infections=50).index_cases()
        assert len(set(cases.tolist())) == 50
