"""The streaming generator: structure, determinism, backing equivalence.

The load-bearing contracts:

* **backing is invisible** — RAM and memmap builds of the same spec are
  bit-identical (same content hash) and drive identical epidemics;
* **backing is invisible at any block size** — RAM and memmap builds
  agree for any ``n_persons`` × ``block_persons``, partial last blocks
  and single blocks included (hypothesis property);
* **block_persons is identity** — it keys the per-block RNG streams, so
  it is part of the population's content (and of the spec hash);
* **no leaks** — dropping the last reference to a memmap-backed graph
  removes its temp directory.
"""

from __future__ import annotations

import gc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.spec import PopulationSpec, RunSpec, execute
from repro.synthpop import (
    PopulationConfig,
    generate_population_streamed,
    load_population,
    save_population,
)
from repro.synthpop.graph import MINUTES_PER_DAY


CFG = PopulationConfig(n_persons=600)


@pytest.fixture(scope="module")
def graph():
    return generate_population_streamed(CFG, 11, block_persons=128)


class TestStructure:
    def test_validates(self, graph):
        graph.validate()

    def test_counts(self, graph):
        assert graph.n_persons == 600
        # 2 home visits per person plus >= 0 activity visits
        assert graph.n_visits >= 2 * 600
        assert graph.n_locations > 0

    def test_sorted_by_person_then_start(self, graph):
        keys = graph.visit_person.astype(np.int64) * MINUTES_PER_DAY + graph.visit_start
        assert (np.diff(keys) >= 0).all()

    def test_every_person_has_home_visits(self, graph):
        home = graph.visit_location == graph.person_home[graph.visit_person]
        per_person = np.bincount(
            graph.visit_person[home], minlength=graph.n_persons
        )
        assert (per_person >= 2).all()

    def test_times_within_day(self, graph):
        assert (graph.visit_start >= 0).all()
        assert (graph.visit_end <= MINUTES_PER_DAY).all()
        assert (graph.visit_start < graph.visit_end).all()

    def test_sublocs_in_range(self, graph):
        assert (graph.visit_subloc >= 0).all()
        assert (
            graph.visit_subloc < graph.location_n_sublocs[graph.visit_location]
        ).all()

    def test_mean_degree_near_target(self):
        g = generate_population_streamed(
            PopulationConfig(n_persons=4000), 3
        )
        mean = g.n_visits / g.n_persons
        assert abs(mean - 5.5) < 0.5

    def test_regions_cover_all(self):
        g = generate_population_streamed(
            PopulationConfig(n_persons=800, n_regions=4), 5
        )
        assert set(np.unique(g.person_region)) == {0, 1, 2, 3}
        assert set(np.unique(g.location_region)) == {0, 1, 2, 3}


class TestDeterminism:
    def test_same_seed_same_content(self, graph):
        again = generate_population_streamed(CFG, 11, block_persons=128)
        assert again.content_hash() == graph.content_hash()

    def test_seed_changes_content(self, graph):
        other = generate_population_streamed(CFG, 12, block_persons=128)
        assert other.content_hash() != graph.content_hash()

    def test_block_size_changes_content(self, graph):
        other = generate_population_streamed(CFG, 11, block_persons=64)
        assert other.content_hash() != graph.content_hash()


class TestBackingEquivalence:
    def test_memmap_bit_identical_to_ram(self, graph):
        mm = generate_population_streamed(
            CFG, 11, block_persons=128, backing="memmap"
        )
        assert mm.backing.kind == "memmap"
        assert mm.content_hash() == graph.content_hash()
        np.testing.assert_array_equal(
            np.asarray(mm.visit_person), np.asarray(graph.visit_person)
        )

    def test_epidemics_identical_across_backings(self):
        def result(backing):
            spec = PopulationSpec(
                kind="streamed", n_persons=1500, seed=4, backing=backing
            )
            return execute(RunSpec(population=spec, n_days=12, seed=9)).record()

        assert result("ram") == result("memmap")

    def test_spec_hash_excludes_backing(self):
        hashes = {
            PopulationSpec(kind="streamed", n_persons=100, backing=b).content_hash()
            for b in (None, "ram", "memmap", "auto")
        }
        assert len(hashes) == 1

    def test_chunk_persons_is_not_a_field(self):
        with pytest.raises(TypeError):
            PopulationSpec(kind="streamed", n_persons=100, chunk_persons=64)

    def test_spec_hash_includes_block_persons(self):
        a = PopulationSpec(kind="streamed", n_persons=100)
        b = PopulationSpec(
            kind="streamed", n_persons=100, params={"block_persons": 64}
        )
        assert a.content_hash() != b.content_hash()

    def test_backing_rejected_on_other_kinds(self):
        with pytest.raises(ValueError):
            PopulationSpec(n_persons=100, backing="memmap")


class TestBlockBackingInvariance:
    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(1, 300),
        block=st.one_of(st.sampled_from([16, 64, 4096]), st.integers(1, 400)),
        regions=st.sampled_from([1, 3]),
    )
    def test_ram_equals_memmap_at_any_block(self, n, block, regions):
        cfg = PopulationConfig(n_persons=n, n_regions=regions)
        ram = generate_population_streamed(cfg, 2, block_persons=block, backing="ram")
        mm = generate_population_streamed(cfg, 2, block_persons=block, backing="memmap")
        assert mm.content_hash() == ram.content_hash()


class TestRoundTrip:
    def test_dir_round_trip(self, tmp_path, graph):
        d = save_population(graph, tmp_path / "pop.d")
        loaded = load_population(d)
        assert loaded.content_hash() == graph.content_hash()
        assert isinstance(loaded.visit_person, np.memmap)

    def test_memmap_build_persists_and_reloads(self, tmp_path, graph):
        """Generation leaves the memmap pages to the kernel; the flush
        before publishing is ``persist``'s, so the saved directory
        reloads to the same content."""
        mm = generate_population_streamed(
            CFG, 11, block_persons=128, backing="memmap"
        )
        d = save_population(mm, tmp_path / "pop.d")
        assert mm.backing.dir == d
        loaded = load_population(d)
        assert loaded.content_hash() == mm.content_hash() == graph.content_hash()

    def test_streamed_matches_spec_build(self, graph):
        via_spec = PopulationSpec(
            kind="streamed", n_persons=600, seed=11,
            params={"block_persons": 128},
        ).build()
        assert via_spec.content_hash() == graph.content_hash()


class TestLifecycle:
    def test_temp_backing_removed_on_gc(self):
        g = generate_population_streamed(
            PopulationConfig(n_persons=200), 1, backing="memmap"
        )
        d = Path(g.backing.dir)
        assert d.is_dir() and any(d.iterdir())
        del g
        gc.collect()
        assert not d.exists()

    def test_persisted_dir_survives_gc(self, tmp_path):
        g = generate_population_streamed(
            PopulationConfig(n_persons=200), 1, backing="memmap"
        )
        target = tmp_path / "kept.d"
        g.backing.persist(target)
        del g
        gc.collect()
        assert target.is_dir() and any(target.iterdir())

    def test_pop_dir_env_controls_parent(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_POP_DIR", str(tmp_path / "pops"))
        g = generate_population_streamed(
            PopulationConfig(n_persons=100), 0, backing="memmap"
        )
        assert Path(g.backing.dir).parent == tmp_path / "pops"
