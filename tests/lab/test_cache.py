"""The content-addressed artifact cache: hits, keys and persistence.

Contract (ISSUE acceptance criteria): a second identical sweep builds
*zero* artifacts — asserted through the :mod:`repro.observe` spans the
cache emits, not through its own counters, so the claim is visible to
any profiler — and any mutation of a generating sub-spec changes the
cache key.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import observe
from repro.lab import ArtifactCache, SweepConfig, run_sweep
from repro.spec import PartitionSpec, PopulationSpec, RunSpec, RuntimeSpec


def base_spec(**overrides) -> RunSpec:
    defaults = dict(
        population=PopulationSpec(n_persons=200, seed=2, name="cache-test"),
        n_days=3,
        initial_infections=6,
    )
    defaults.update(overrides)
    return RunSpec(**defaults)


def sweep_config(**overrides) -> SweepConfig:
    defaults = dict(
        base=base_spec(),
        grid={"transmissibility": [2e-4, 4e-4]},
        replications=2,
        master_seed=9,
    )
    defaults.update(overrides)
    return SweepConfig(**defaults)


def build_span_names(obs) -> list[str]:
    return [s.name for s in obs.closed_spans()
            if s.name in ("lab.pop_build", "lab.part_build")]


class TestObserveVisibleHits:
    def test_second_identical_sweep_builds_nothing(self, tmp_path):
        """The headline criterion: sweep twice, second pass = 0 builds.

        Runs inline (workers=0) so every cache event lands in this
        process's observe spans.
        """
        cfg = sweep_config()
        with observe.observing() as first:
            run_sweep(cfg, workers=0, store_dir=tmp_path / "s1",
                      cache_dir=tmp_path / "cache")
        with observe.observing() as second:
            run_sweep(cfg, workers=0, store_dir=tmp_path / "s2",
                      cache_dir=tmp_path / "cache")
        assert build_span_names(first) == ["lab.pop_build"]
        assert build_span_names(second) == []
        # Hits are visible as counters: 4 runs × 2 sweeps = 8 demands,
        # 1 build, 7 hits.
        assert first.counters.get("lab.pop_hit", 0) == 3
        assert second.counters.get("lab.pop_hit", 0) == 4

    def test_partition_artifacts_cached_for_distributed_backends(self, tmp_path):
        cfg = sweep_config(
            base=base_spec(runtime=RuntimeSpec(backend="smp", workers=2)),
            grid={"transmissibility": [2e-4]},
        )
        with observe.observing() as first:
            run_sweep(cfg, workers=0, store_dir=None, cache_dir=tmp_path)
        with observe.observing() as second:
            run_sweep(cfg, workers=0, store_dir=None, cache_dir=tmp_path)
        assert sorted(build_span_names(first)) == ["lab.part_build", "lab.pop_build"]
        assert build_span_names(second) == []


class TestKeys:
    def test_mutated_subspec_changes_key_and_misses(self):
        cache = ArtifactCache()
        spec = PopulationSpec(n_persons=120, seed=1)
        cache.population(spec)
        cache.population(dataclasses.replace(spec, seed=2))
        cache.population(dataclasses.replace(spec, params={"mean_visits": 5.0}))
        assert cache.stats.pop_builds == 3
        assert cache.stats.pop_hits == 0

    def test_identical_subspec_hits_in_memory(self):
        cache = ArtifactCache()
        spec = PopulationSpec(n_persons=120, seed=1)
        g1 = cache.population(spec)
        g2 = cache.population(PopulationSpec(n_persons=120, seed=1))
        assert g1 is g2
        assert (cache.stats.pop_builds, cache.stats.pop_hits) == (1, 1)

    def test_partition_key_depends_on_population(self):
        cache = ArtifactCache()
        part = PartitionSpec(method="rr", k=2)
        pop_a = PopulationSpec(n_persons=120, seed=1)
        pop_b = PopulationSpec(n_persons=120, seed=2)
        cache.partition(pop_a, part, cache.population(pop_a))
        cache.partition(pop_b, part, cache.population(pop_b))
        assert cache.stats.part_builds == 2

    def test_file_populations_bypass_the_cache(self, tmp_path):
        from repro.synthpop import save_population

        graph = PopulationSpec(n_persons=80, seed=3).build()
        path = tmp_path / "pop.d"
        save_population(graph, path)
        cache = ArtifactCache()
        spec = PopulationSpec(kind="file", path=str(path))
        cache.population(spec)
        cache.population(spec)
        assert cache.stats.pop_builds == 0 and cache.stats.pop_hits == 0


class TestDiskPersistence:
    def test_artifacts_survive_across_cache_instances(self, tmp_path):
        spec = PopulationSpec(n_persons=150, seed=4)
        first = ArtifactCache(root=tmp_path)
        built = first.population(spec)
        second = ArtifactCache(root=tmp_path)  # fresh process, same disk
        loaded = second.population(spec)
        assert second.stats.pop_builds == 0
        assert second.stats.pop_hits == 1
        assert (loaded.visit_person == built.visit_person).all()
        assert (loaded.visit_start == built.visit_start).all()

    def test_split_partition_roundtrips_transformed_graph(self, tmp_path):
        pop = PopulationSpec(
            kind="preset", preset="heavy-tailed", n_persons=300,
            params={"n_locations": 12},
        )
        part = PartitionSpec(method="rr", k=2, split=True, max_partitions=32)
        first = ArtifactCache(root=tmp_path)
        g1, p1 = first.partition(pop, part, first.population(pop))
        second = ArtifactCache(root=tmp_path)
        g2, p2 = second.partition(pop, part, second.population(pop))
        assert second.stats.part_builds == 0
        # The split graph (more locations than the source) comes back
        # bit-identical, not re-derived.
        assert g1.n_locations == g2.n_locations
        assert (g1.visit_location == g2.visit_location).all()
        assert (p1.location_part == p2.location_part).all()
        assert np.array_equal(p1.person_part, p2.person_part)


class TestStreamedPopulations:
    """Populations persist as ``pop/<key>.d`` directories: a memmap
    generation backing is *renamed* into the cache (zero-copy), a RAM
    build is written out, and later loads memmap the columns back."""

    def _spec(self, backing):
        return PopulationSpec(
            kind="streamed", n_persons=400, seed=6, backing=backing
        )

    def test_memmap_build_stores_directory_artifact(self, tmp_path):
        cache = ArtifactCache(root=tmp_path)
        graph = cache.population(self._spec("memmap"))
        key = self._spec("memmap").content_hash()
        d = tmp_path / "pop" / f"{key}.d"
        assert d.is_dir() and (d / "header.json").exists()
        # persist() handed the temp dir to the cache: same files.
        assert graph.backing.dir == d and not graph.backing.owned

    def test_directory_artifact_hits_and_memmaps(self, tmp_path):
        ArtifactCache(root=tmp_path).population(self._spec("memmap"))
        second = ArtifactCache(root=tmp_path)
        loaded = second.population(self._spec("memmap"))
        assert second.stats.pop_builds == 0 and second.stats.pop_hits == 1
        assert isinstance(loaded.visit_person, np.memmap)

    def test_backing_variants_share_one_artifact(self, tmp_path):
        """backing is execution-only: a ram request hits the memmap
        artifact and vice versa (one key, one build)."""
        first = ArtifactCache(root=tmp_path)
        built = first.population(self._spec("memmap"))
        second = ArtifactCache(root=tmp_path)
        loaded = second.population(self._spec("ram"))
        assert second.stats.pop_builds == 0
        assert loaded.content_hash() == built.content_hash()

    def test_ram_build_stores_directory_artifact(self, tmp_path):
        cache = ArtifactCache(root=tmp_path)
        cache.population(self._spec("ram"))
        key = self._spec("ram").content_hash()
        assert sorted(p.name for p in (tmp_path / "pop").iterdir()) == [f"{key}.d"]

    def test_streamed_sweep_caches_clean(self, tmp_path):
        config = sweep_config(
            base=base_spec(population=self._spec("memmap"))
        )
        run_sweep(config, workers=0, store_dir=tmp_path / "s1",
                  cache_dir=tmp_path / "cache")
        with observe.observing() as obs:
            run_sweep(config, workers=0, store_dir=tmp_path / "s2",
                      cache_dir=tmp_path / "cache")
        assert build_span_names(obs) == []


class TestDamagedPopulationEntry:
    """A ``pop/<key>.d`` that cannot be read back is a miss: counted,
    removed, rebuilt once, and the rebuilt entry hits next time."""

    POP = PopulationSpec(n_persons=150, seed=4)

    def _entry(self, root):
        return root / "pop" / f"{self.POP.content_hash()}.d"

    def _reload(self, root):
        cache = ArtifactCache(root=root)
        with observe.observing() as obs:
            graph = cache.population(self.POP)
        return cache, obs, graph

    def _assert_rebuilt_once_then_hits(self, root, good):
        cache, obs, graph = self._reload(root)
        assert cache.stats.pop_builds == 1 and cache.stats.pop_hits == 0
        assert obs.counters.get("lab.pop_corrupt") == 1
        assert build_span_names(obs) == ["lab.pop_build"]
        assert graph.content_hash() == good
        cache, obs, graph = self._reload(root)
        assert cache.stats.pop_builds == 0 and cache.stats.pop_hits == 1
        assert "lab.pop_corrupt" not in obs.counters
        assert graph.content_hash() == good

    @pytest.mark.parametrize("keep", [0.0, 0.05, 0.5, 0.95])
    def test_truncated_column(self, tmp_path, keep):
        good = ArtifactCache(root=tmp_path).population(self.POP).content_hash()
        column = self._entry(tmp_path) / "visit_person.npy"
        blob = column.read_bytes()
        column.write_bytes(blob[: int(len(blob) * keep)])
        self._assert_rebuilt_once_then_hits(tmp_path, good)

    def test_missing_column(self, tmp_path):
        good = ArtifactCache(root=tmp_path).population(self.POP).content_hash()
        (self._entry(tmp_path) / "visit_end.npy").unlink()
        self._assert_rebuilt_once_then_hits(tmp_path, good)

    @pytest.mark.parametrize("header", ["", "{not json", "{}", '{"format_version": 1}'])
    def test_bad_header(self, tmp_path, header):
        good = ArtifactCache(root=tmp_path).population(self.POP).content_hash()
        (self._entry(tmp_path) / "header.json").write_text(header)
        self._assert_rebuilt_once_then_hits(tmp_path, good)


class TestDamagedPartitionEntry:
    """A ``part/<key>.npz`` that cannot be read back, or whose arrays do
    not fit the graph, is a miss: counted, rebuilt once, overwritten."""

    POP = PopulationSpec(n_persons=150, seed=4)
    PART = PartitionSpec(method="gp", k=3)

    def _entry(self, root, pop=None):
        pop = pop or self.POP
        return root / "part" / f"{self.PART.content_hash(pop.content_hash())}.npz"

    def _build(self, root, pop=None):
        pop = pop or self.POP
        cache = ArtifactCache(root=root)
        return cache.partition(pop, self.PART, cache.population(pop))[1]

    def _reload(self, root):
        cache = ArtifactCache(root=root)
        with observe.observing() as obs:
            part = cache.partition(self.POP, self.PART, cache.population(self.POP))[1]
        return cache, obs, part

    def _assert_rebuilt_once_then_hits(self, root, good):
        cache, obs, part = self._reload(root)
        assert cache.stats.part_builds == 1 and cache.stats.part_hits == 0
        assert obs.counters.get("lab.part_corrupt") == 1
        assert build_span_names(obs) == ["lab.part_build"]
        assert np.array_equal(part.person_part, good.person_part)
        assert np.array_equal(part.location_part, good.location_part)
        # the rebuild overwrote the damaged file: the next process hits
        cache, obs, part = self._reload(root)
        assert cache.stats.part_builds == 0 and cache.stats.part_hits == 1
        assert "lab.part_corrupt" not in obs.counters
        assert np.array_equal(part.person_part, good.person_part)

    @pytest.mark.parametrize("keep", [0.0, 0.5, 0.95])
    def test_truncated_file(self, tmp_path, keep):
        good = self._build(tmp_path)
        entry = self._entry(tmp_path)
        blob = entry.read_bytes()
        entry.write_bytes(blob[: int(len(blob) * keep)])
        self._assert_rebuilt_once_then_hits(tmp_path, good)

    def test_partition_of_another_population(self, tmp_path):
        good = self._build(tmp_path)
        other = PopulationSpec(n_persons=220, seed=5)
        self._build(tmp_path, other)
        self._entry(tmp_path).write_bytes(self._entry(tmp_path, other).read_bytes())
        self._assert_rebuilt_once_then_hits(tmp_path, good)
