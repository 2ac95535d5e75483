"""Sweep determinism: pool size can never leak into results.

The acceptance criterion for the lab: the same grid + master seed
produces a **byte-identical** ``results.jsonl`` whether executed
inline, on one worker or on four, and any stored run can be replayed
exactly from its embedded spec.
"""

from __future__ import annotations

import glob
from dataclasses import replace

import pytest

from repro.lab import (
    ResultStore,
    SweepConfig,
    expand,
    replay,
    run_sweep,
    spec_with,
)
from repro.spec import PopulationSpec, RunSpec, RuntimeSpec
from repro.util.rng import derive_seed


def tiny_config(**overrides) -> SweepConfig:
    defaults = dict(
        base=RunSpec(
            population=PopulationSpec(n_persons=150, seed=1, name="det"),
            n_days=3,
            initial_infections=6,
        ),
        grid={"transmissibility": [2e-4, 4e-4]},
        replications=2,
        master_seed=5,
    )
    defaults.update(overrides)
    return SweepConfig(**defaults)


class TestExpansion:
    def test_expansion_is_sorted_and_seeded(self):
        cfg = tiny_config(grid={"transmissibility": [2e-4], "n_days": [2, 3]})
        tasks = expand(cfg)
        # Grid keys in sorted order: n_days varies slowest of the two.
        assert [t.point["n_days"] for t in tasks] == [2, 2, 3, 3]
        assert [t.index for t in tasks] == [0, 1, 2, 3]
        # Seeds come from derive_seed(master, point_index, replicate) —
        # independent of execution.
        assert tasks[3].spec.seed == derive_seed(5, 1, 1)
        assert len({t.spec.seed for t in tasks}) == 4

    def test_replicates_share_the_population_subspec(self):
        tasks = expand(tiny_config())
        assert len({t.spec.population.content_hash() for t in tasks}) == 1

    def test_spec_with_rejects_unknown_paths(self):
        base = tiny_config().base
        with pytest.raises(ValueError, match="no field"):
            spec_with(base, "virulence", 2)
        with pytest.raises(ValueError, match="unset"):
            spec_with(base, "partition.k", 2)


class TestPoolSizeIndependence:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_store_bytes_identical_to_inline(self, tmp_path, workers):
        cfg = tiny_config()
        run_sweep(cfg, workers=0, store_dir=tmp_path / "inline")
        run_sweep(cfg, workers=workers, store_dir=tmp_path / f"w{workers}")
        inline = (tmp_path / "inline" / "results.jsonl").read_bytes()
        pooled = (tmp_path / f"w{workers}" / "results.jsonl").read_bytes()
        assert pooled == inline

    def test_smp_runs_in_a_pooled_sweep(self, tmp_path):
        # Pool workers may fork: an smp-w2 spec runs under workers=2
        # exactly as inline, and every shared-memory segment is unlinked.
        base = tiny_config().base
        cfg = tiny_config(base=replace(base, runtime=RuntimeSpec(backend="smp", workers=2)))
        before = set(glob.glob("/dev/shm/repro-smp-*"))
        for workers in (0, 2):
            run_sweep(cfg, workers=workers, store_dir=tmp_path / f"w{workers}")
        inline = (tmp_path / "w0" / "results.jsonl").read_bytes()
        assert (tmp_path / "w2" / "results.jsonl").read_bytes() == inline
        assert set(glob.glob("/dev/shm/repro-smp-*")) <= before

    def test_records_are_in_task_order_with_no_timings(self, tmp_path):
        run_sweep(tiny_config(), workers=2, store_dir=tmp_path)
        records = ResultStore(tmp_path).records()
        assert [r["index"] for r in records] == [0, 1, 2, 3]
        assert all("wall" not in k for r in records for k in r)

    def test_master_seed_changes_every_trajectory(self, tmp_path):
        run_sweep(tiny_config(), workers=0, store_dir=tmp_path / "a")
        run_sweep(tiny_config(master_seed=6), workers=0, store_dir=tmp_path / "b")
        a = ResultStore(tmp_path / "a").records()
        b = ResultStore(tmp_path / "b").records()
        assert [r["seed"] for r in a] != [r["seed"] for r in b]
        assert [r["spec_hash"] for r in a] != [r["spec_hash"] for r in b]


class TestReplay:
    def test_replay_reproduces_every_stored_trajectory(self, tmp_path):
        run_sweep(tiny_config(), workers=2, store_dir=tmp_path)
        store = ResultStore(tmp_path)
        for record in store.records():
            outcome = replay(store, record["index"])
            assert outcome.match, outcome.format()

    def test_replay_detects_a_corrupted_record(self, tmp_path):
        run_sweep(tiny_config(), workers=0, store_dir=tmp_path)
        store = ResultStore(tmp_path)
        lines = store.results_path.read_text().splitlines()
        import json

        tampered = json.loads(lines[0])
        tampered["total_infections"] += 1
        lines[0] = json.dumps(tampered, sort_keys=True, separators=(",", ":"))
        store.results_path.write_text("\n".join(lines) + "\n")
        outcome = replay(store, 0)
        assert not outcome.match
        assert any("total_infections" in d for d in outcome.diffs)
