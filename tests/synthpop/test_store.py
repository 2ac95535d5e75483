"""PopulationBacking lifecycle and the directory population format."""

from __future__ import annotations

import errno
import gc
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.synthpop import (
    PopulationBacking,
    PopulationConfig,
    generate_population,
    generate_population_streamed,
    load_population,
    save_population,
)


class TestBacking:
    def test_ram_allocate(self):
        b = PopulationBacking.create("ram")
        a = b.allocate("x", (10,), np.int32)
        assert a.shape == (10,) and a.dtype == np.int32 and (a == 0).all()
        assert b.nbytes == 40

    def test_memmap_allocate_creates_npy(self):
        b = PopulationBacking.create("memmap")
        a = b.allocate("visit_start", (100,), np.int32)
        a[:] = np.arange(100)
        f = Path(b.dir) / "visit_start.npy"
        assert f.exists()
        b.flush()
        np.testing.assert_array_equal(np.load(f), np.arange(100))
        b.close()

    def test_duplicate_name_rejected(self):
        b = PopulationBacking.create("ram")
        b.allocate("x", (1,), np.int8)
        with pytest.raises(ValueError, match="already allocated"):
            b.allocate("x", (1,), np.int8)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="ram.*memmap"):
            PopulationBacking("weird")

    def test_close_removes_owned_dir(self):
        b = PopulationBacking.create("memmap")
        d = Path(b.dir)
        b.allocate("x", (5,), np.int64)
        b.close()
        assert not d.exists()

    def test_gc_removes_owned_dir(self):
        b = PopulationBacking.create("memmap")
        d = Path(b.dir)
        del b
        gc.collect()
        assert not d.exists()

    def test_persist_moves_and_disarms_cleanup(self, tmp_path):
        b = PopulationBacking.create("memmap")
        a = b.allocate("x", (4,), np.int64)
        a[:] = 7
        target = tmp_path / "artifact"
        assert b.persist(target) == target
        assert not b.owned
        del b
        gc.collect()
        np.testing.assert_array_equal(np.load(target / "x.npy"), [7, 7, 7, 7])

    def test_persist_keeps_the_winner_of_a_race(self, tmp_path):
        """A concurrent builder already published ``target``: its files
        keep their bytes and inodes (others may have them mapped), and
        the loser's directory is dropped, not copied over them."""
        target = tmp_path / "artifact"
        winner = PopulationBacking.create("memmap")
        winner.allocate("x", (4,), np.int64)[:] = 7
        winner.persist(target)
        inode = (target / "x.npy").stat().st_ino
        loser = PopulationBacking.create("memmap")
        loser.allocate("x", (4,), np.int64)[:] = 1
        loser_dir = Path(loser.dir)
        assert loser.persist(target) == target
        assert not loser_dir.exists() and not loser.owned
        assert (target / "x.npy").stat().st_ino == inode
        np.testing.assert_array_equal(np.load(target / "x.npy"), [7, 7, 7, 7])

    @staticmethod
    def _exdev_once(monkeypatch):
        """Make the next ``os.replace`` fail as a rename across
        filesystems does; returns the list of attempted sources."""
        real, calls = os.replace, []

        def replace(src, dst):
            calls.append(Path(src))
            if len(calls) == 1:
                raise OSError(errno.EXDEV, os.strerror(errno.EXDEV))
            real(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        return calls

    def test_persist_copies_across_filesystems(self, tmp_path, monkeypatch):
        g = generate_population_streamed(PopulationConfig(n_persons=80), 4, backing="memmap")
        source, digest = Path(g.backing.dir), g.content_hash()
        calls = self._exdev_once(monkeypatch)
        target = save_population(g, tmp_path / "pop.d")
        assert calls[0] == source and len(calls) == 2  # the rename, then the copy's
        assert load_population(target).content_hash() == digest
        assert not source.exists() and not g.backing.owned
        assert not list(tmp_path.glob(".pop.d.*"))

    def test_persist_across_filesystems_keeps_the_winner_of_a_race(self, tmp_path, monkeypatch):
        """A concurrent writer publishes ``target`` while the copy runs."""
        target = tmp_path / "artifact"
        winner = PopulationBacking.create("memmap")
        winner.allocate("x", (4,), np.int64)[:] = 7
        inode = (Path(winner.dir) / "x.npy").stat().st_ino
        loser = PopulationBacking.create("memmap")
        loser.allocate("x", (4,), np.int64)[:] = 1
        loser_dir = Path(loser.dir)
        real_copytree = shutil.copytree

        def copy_and_lose(src, dst, **kwargs):
            real_copytree(src, dst, **kwargs)
            winner.persist(target)

        calls = self._exdev_once(monkeypatch)
        monkeypatch.setattr(shutil, "copytree", copy_and_lose)
        assert loser.persist(target) == target
        assert len(calls) == 3  # the loser's rename, the winner's, the loser's copy
        assert not loser_dir.exists() and not loser.owned
        assert (target / "x.npy").stat().st_ino == inode
        np.testing.assert_array_equal(np.load(target / "x.npy"), [7, 7, 7, 7])
        assert not list(tmp_path.glob(".artifact.*"))

    def test_persist_requires_ownership(self, tmp_path):
        (tmp_path / "pre").mkdir()
        b = PopulationBacking("memmap", tmp_path / "pre", owned=False)
        with pytest.raises(ValueError, match="own"):
            b.persist(tmp_path / "out")

    def test_ram_cannot_persist(self, tmp_path):
        with pytest.raises(ValueError, match="memmap"):
            PopulationBacking.create("ram").persist(tmp_path / "out")


class TestPopulationDir:
    def test_round_trip_dense_graph(self, tmp_path):
        # The directory format also accepts plain dense graphs.
        g = generate_population(PopulationConfig(n_persons=150), 3)
        d = save_population(g, tmp_path / "dense.d")
        g2 = load_population(d)
        assert g2.content_hash() == g.content_hash()
        assert g2.name == g.name
        assert isinstance(g2.visit_person, np.memmap)  # loads always map

    def test_regions_round_trip(self, tmp_path):
        g = generate_population_streamed(
            PopulationConfig(n_persons=120, n_regions=3), 2
        )
        g2 = load_population(save_population(g, tmp_path / "r.d"))
        np.testing.assert_array_equal(
            np.asarray(g2.person_region), np.asarray(g.person_region)
        )

    def test_missing_column_rejected(self, tmp_path):
        g = generate_population_streamed(PopulationConfig(n_persons=50), 0)
        d = save_population(g, tmp_path / "bad.d")
        (d / "visit_start.npy").unlink()
        with pytest.raises(ValueError, match="visit_start"):
            load_population(d)

    def test_bad_format_version_rejected(self, tmp_path):
        g = generate_population_streamed(PopulationConfig(n_persons=50), 0)
        d = save_population(g, tmp_path / "v.d")
        header = d / "header.json"
        header.write_text(header.read_text().replace('"format_version": 1', '"format_version": 99'))
        with pytest.raises(ValueError, match="format"):
            load_population(d)

    def test_loaded_graph_backing_not_owned(self, tmp_path):
        g = generate_population_streamed(PopulationConfig(n_persons=50), 0)
        d = save_population(g, tmp_path / "keep.d")
        g2 = load_population(d)
        del g2
        gc.collect()
        assert d.is_dir()  # loading never claims ownership
