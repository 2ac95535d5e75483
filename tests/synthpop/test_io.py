"""Population persistence round-trips (the column-directory format)."""

import numpy as np
import pytest

from repro.synthpop import load_population, save_population


class TestRoundTrip:
    def test_roundtrip_preserves_everything(self, tmp_path, tiny_graph):
        path = tmp_path / "pop.d"
        save_population(tiny_graph, path)
        back = load_population(path)
        assert back.name == tiny_graph.name
        assert back.n_persons == tiny_graph.n_persons
        assert back.n_locations == tiny_graph.n_locations
        for f in (
            "visit_person", "visit_location", "visit_subloc", "visit_start",
            "visit_end", "location_n_sublocs", "location_type", "person_age",
            "person_home",
        ):
            np.testing.assert_array_equal(getattr(back, f), getattr(tiny_graph, f))

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_population(tmp_path / "nope.d")

    def test_loaded_graph_usable_in_simulation(self, tmp_path, tiny_graph):
        from repro.core import Scenario, SequentialSimulator

        g = load_population(save_population(tiny_graph, tmp_path / "g.d"))
        res = SequentialSimulator(Scenario(graph=g, n_days=3, seed=1)).run()
        assert res.curve.n_days == 3
