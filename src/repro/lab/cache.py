"""Content-addressed artifact cache: the same graph is never built twice.

Population and partition construction dominate small-run sweeps (a
2 000-person population takes ~10× longer to synthesise than to
simulate for a few days), and a sweep re-uses the same population for
every grid point that doesn't vary it — and for every one of its N
stochastic replications.  The cache keys each artifact by the BLAKE2b
:meth:`~repro.spec.PopulationSpec.content_hash` of the *generating
sub-spec*, so:

* identical sub-specs hit (within a sweep, across sweeps, across
  processes — artifacts persist on disk);
* any mutation of the sub-spec (a different seed, Zipf exponent,
  splitLoc threshold …) changes the key — false hits are impossible
  short of a BLAKE2b collision.

Layout under the cache root::

    pop/<pop-hash>.d/            saved population (directory of .npy
                                 columns; loads back as read-only
                                 memmaps — constant RAM at any size)
    part/<part-hash>.npz         person/location part arrays + metadata
    part/<part-hash>.graph       pop-hash of the post-splitLoc graph
                                 (only when the partition spec splits)

A streamed population built on a memmap backing is *renamed* into the
cache (zero-copy, :func:`repro.synthpop.save_population`); any other
graph is written column by column.

Writes are build-to-temp + :func:`os.replace`, so concurrent builders
(the lab worker pool makes this routine) race benignly: both build,
both succeed, one rename wins, the artifact is never observed
half-written.

Every hit and build is visible to :mod:`repro.observe` — spans named
``lab.pop_build`` / ``lab.part_build`` wrap real construction and
``lab.pop_hit`` / ``lab.part_hit`` counters mark hits, which is exactly
what the cache tests assert on (a second identical sweep records zero
build spans).  A population entry that cannot be read back counts
``lab.pop_corrupt``; a partition entry that cannot be read back, or
whose arrays do not fit the graph, counts ``lab.part_corrupt``.  Either
is rebuilt.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import observe
from repro.spec import PartitionSpec, PopulationSpec

__all__ = ["ArtifactCache", "CacheStats"]


@dataclass
class CacheStats:
    """Hit/build counters, split by artifact family."""

    pop_hits: int = 0
    pop_builds: int = 0
    part_hits: int = 0
    part_builds: int = 0

    @property
    def hits(self) -> int:
        return self.pop_hits + self.part_hits

    @property
    def builds(self) -> int:
        return self.pop_builds + self.part_builds

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.builds
        return self.hits / total if total else 0.0

    def merge(self, other: "CacheStats") -> None:
        self.pop_hits += other.pop_hits
        self.pop_builds += other.pop_builds
        self.part_hits += other.part_hits
        self.part_builds += other.part_builds


@dataclass
class ArtifactCache:
    """Memoises population and partition builds by sub-spec hash.

    ``root=None`` keeps everything in memory (single-process sweeps,
    tests); with a directory, artifacts persist and are shared across
    worker processes and across sweeps.

    >>> cache = ArtifactCache()
    >>> pspec = PopulationSpec(n_persons=80)
    >>> g1 = cache.population(pspec)
    >>> g2 = cache.population(pspec)   # memo hit: same object
    >>> g1 is g2, cache.stats.pop_builds, cache.stats.pop_hits
    (True, 1, 1)
    """

    root: Path | None = None
    stats: CacheStats = field(default_factory=CacheStats)
    _pops: dict = field(default_factory=dict, repr=False)
    _parts: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.root is not None:
            self.root = Path(self.root)

    # -- populations ----------------------------------------------------
    def population(self, spec: PopulationSpec):
        """The graph for ``spec``, built at most once per key."""
        if not spec.cacheable:
            # File-backed graphs are already artifacts; pass through.
            return spec.build()
        key = spec.content_hash()
        graph = self._pops.get(key)
        if graph is not None:
            self.stats.pop_hits += 1
            observe.counter("lab.pop_hit")
            return graph
        graph = self._load_pop(key)
        if graph is not None:
            self.stats.pop_hits += 1
            observe.counter("lab.pop_hit")
        else:
            with observe.span("lab.pop_build", key=key, kind=spec.kind):
                graph = spec.build()
            self.stats.pop_builds += 1
            self._store_pop(key, graph)
        self._pops[key] = graph
        return graph

    def _pop_dir_path(self, key: str) -> Path | None:
        return None if self.root is None else self.root / "pop" / f"{key}.d"

    def _load_pop(self, key: str):
        path = self._pop_dir_path(key)
        if path is None or not path.is_dir():
            return None
        from repro.synthpop import load_population

        try:
            return load_population(path)
        except (OSError, EOFError, ValueError, KeyError):
            # A missing, truncated or unreadable column or header: a
            # miss.  The entry goes first, or the rebuild's save would
            # take it for a concurrent writer's and keep it.
            observe.counter("lab.pop_corrupt")
            shutil.rmtree(path, ignore_errors=True)
            return None

    def _store_pop(self, key: str, graph) -> None:
        path = self._pop_dir_path(key)
        if path is not None:
            from repro.synthpop import save_population

            save_population(graph, path)

    # -- partitions -----------------------------------------------------
    def partition(self, pop_spec: PopulationSpec, part_spec: PartitionSpec, graph):
        """``(graph, partition)`` for ``part_spec`` over ``pop_spec``'s
        graph — the returned graph differs from the input when the
        partition spec applies splitLoc."""
        key = part_spec.content_hash(pop_spec.content_hash())
        hit = self._parts.get(key)
        if hit is not None:
            self.stats.part_hits += 1
            observe.counter("lab.part_hit")
            return hit
        hit = self._load_part(key, graph)
        if hit is not None:
            self.stats.part_hits += 1
            observe.counter("lab.part_hit")
        else:
            with observe.span(
                "lab.part_build", key=key, method=part_spec.method, k=part_spec.k
            ):
                out_graph, part = part_spec.build(graph)
            self.stats.part_builds += 1
            self._store_part(key, out_graph, part, split=part_spec.split)
            hit = (out_graph, part)
        self._parts[key] = hit
        return hit

    def _part_path(self, key: str) -> Path | None:
        return None if self.root is None else self.root / "part" / f"{key}.npz"

    def _load_part(self, key: str, graph):
        path = self._part_path(key)
        if path is None or not path.exists():
            return None
        import zipfile  # np.load pulls it in for an .npz anyway

        from repro.partition.quality import BipartitePartition

        graph_ref = path.with_suffix(".graph")
        if graph_ref.exists():
            # splitLoc transformed the graph: it lives in pop/ under
            # the derived key recorded next to the partition.
            graph = self._load_pop(graph_ref.read_text().strip())
            if graph is None:
                return None  # split graph evicted; rebuild the pair
        try:
            with np.load(path, allow_pickle=False) as z:
                part = BipartitePartition(
                    person_part=z["person_part"],
                    location_part=z["location_part"],
                    k=int(z["k"]),
                    method=str(z["method"]),
                )
            part.validate_against(graph)
        except (OSError, EOFError, ValueError, KeyError, zipfile.BadZipFile):
            # Truncated or unreadable file, or arrays that do not fit
            # the graph: a miss, and the rebuild overwrites the entry.
            observe.counter("lab.part_corrupt")
            return None
        return graph, part

    def _store_part(self, key: str, graph, part, split: bool) -> None:
        path = self._part_path(key)
        if path is None:
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".{os.getpid()}.tmp.npz")
        np.savez_compressed(
            tmp,
            person_part=part.person_part,
            location_part=part.location_part,
            k=np.int64(part.k),
            method=np.str_(part.method),
        )
        os.replace(tmp, path)
        if split:
            split_key = f"split-{key}"
            self._store_pop(split_key, graph)
            ref_tmp = path.with_suffix(f".{os.getpid()}.tmp.graph")
            ref_tmp.write_text(split_key)
            os.replace(ref_tmp, path.with_suffix(".graph"))
