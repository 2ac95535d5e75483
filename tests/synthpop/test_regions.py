"""Regional (county) structure in synthetic populations."""

import numpy as np
import pytest

from repro.core import Scenario, SequentialSimulator, TransmissionModel
from repro.partition import edge_cut, partition_bipartite, round_robin_partition
from repro.synthpop import PopulationConfig, generate_population, load_population, save_population
from repro.synthpop.graph import LocationType


@pytest.fixture(scope="module")
def regional():
    return generate_population(
        PopulationConfig(n_persons=2000, n_regions=8, region_locality=0.9),
        21,
        name="regional",
    )


class TestStructure:
    def test_region_arrays_present_and_valid(self, regional):
        regional.validate()
        assert regional.person_region is not None
        assert set(np.unique(regional.person_region)) == set(range(8))
        assert set(np.unique(regional.location_region)) == set(range(8))

    def test_no_regions_by_default(self, tiny_graph):
        assert tiny_graph.person_region is None

    def test_home_region_matches_person_region(self, regional):
        np.testing.assert_array_equal(
            regional.person_region,
            regional.location_region[regional.person_home],
        )

    def test_visits_mostly_local(self, regional):
        vr = regional.person_region[regional.visit_person]
        lr = regional.location_region[regional.visit_location]
        local_frac = np.mean(vr == lr)
        # Home visits are always local; activity visits ~90% local.
        assert local_frac > 0.85

    def test_some_cross_region_travel_exists(self, regional):
        vr = regional.person_region[regional.visit_person]
        lr = regional.location_region[regional.visit_location]
        assert np.any(vr != lr)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PopulationConfig(n_persons=10, n_regions=0)
        with pytest.raises(ValueError):
            PopulationConfig(n_persons=10, region_locality=1.5)


class TestLocalityPaysOff:
    def test_gp_cut_much_lower_on_regional_graph(self, regional):
        """With community structure the partitioner has something to
        find: GP's cut should be a small fraction of RR's."""
        k = 8
        gp = partition_bipartite(regional, k)
        rr = round_robin_partition(regional, k)
        assert edge_cut(regional, gp) < 0.5 * edge_cut(regional, rr)

    def test_region_partition_is_a_good_cut(self, regional):
        """Partitioning by region directly yields a low cut — the
        ground-truth communities."""
        from repro.partition.quality import BipartitePartition

        bp = BipartitePartition(
            person_part=regional.person_region.astype(np.int64),
            location_part=regional.location_region.astype(np.int64),
            k=8,
            method="regions",
        )
        rr = round_robin_partition(regional, 8)
        assert edge_cut(regional, bp) < 0.35 * edge_cut(regional, rr)


class TestEpidemicWave:
    def test_epidemic_starts_concentrated_in_seed_region(self, regional):
        """Seeding one region should keep early infections local — the
        spatial wavefront that motivates §VII's predictive LB."""
        seed_region = 0
        candidates = np.flatnonzero(regional.person_region == seed_region)[:10]
        sc = Scenario(
            graph=regional, n_days=8, seed=3,
            initial_infections=candidates,
            transmission=TransmissionModel(2.5e-4),
        )
        sim = SequentialSimulator(sc)
        sim.run()
        infected = sim.state.ever_infected
        if infected.sum() > 15:  # enough spread to measure
            frac_in_seed_region = np.mean(
                regional.person_region[np.flatnonzero(infected)] == seed_region
            )
            assert frac_in_seed_region > 0.5


class TestPersistence:
    def test_regions_roundtrip(self, tmp_path, regional):
        back = load_population(save_population(regional, tmp_path / "r.d"))
        assert back.content_hash() == regional.content_hash()
        np.testing.assert_array_equal(back.person_region, regional.person_region)
        np.testing.assert_array_equal(back.location_region, regional.location_region)

    def test_splitloc_propagates_regions(self, regional):
        from repro.partition import split_heavy_locations

        sr = split_heavy_locations(regional, max_partitions=512)
        assert sr.graph.location_region is not None
        np.testing.assert_array_equal(
            sr.graph.location_region, regional.location_region[sr.origin]
        )
        sr.graph.validate()
