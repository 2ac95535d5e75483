"""Population backing stores and the one on-disk population format.

The dense generator materialises every per-visit array in RAM, which
caps population size at available memory.  A :class:`PopulationBacking`
abstracts *where* a population's arrays live:

* ``kind="ram"`` — plain ``np.empty`` arrays (small runs, tests);
* ``kind="memmap"`` — one ``.npy`` file per array under a directory,
  created with :func:`np.lib.format.open_memmap` so each file is a
  standalone, standard NPY readable by ``np.load(..., mmap_mode="r")``.

Because ``np.memmap`` is an ``ndarray`` subclass, a
:class:`~repro.synthpop.graph.PersonLocationGraph` built over either
backing is indistinguishable to every downstream consumer (kernels,
partitioners, baselines, the lab cache) — only the residency differs.

Temp-file lifecycle: a backing that *owns* its directory removes it
when the backing (and therefore the graph holding it) is garbage
collected, via ``weakref.finalize`` — no leaked ``/tmp`` trees even on
interpreter exit.  :meth:`PopulationBacking.persist` hands the
directory over to a permanent location (the lab artifact cache uses
this) and disarms the finalizer.

The default directory for new memmap backings is
``$REPRO_POP_DIR`` when set, else the system temp dir.

A saved population is such a directory plus a ``header.json``
(:func:`save_population` / :func:`load_population`): the same bytes a
memmap backing holds, so persisting a fresh backing is a rename.

>>> b = PopulationBacking.create("ram")
>>> arr = b.allocate("visit_start", (4,), np.int32)
>>> arr[:] = 7
>>> b.kind, int(b.nbytes)
('ram', 16)
"""

from __future__ import annotations

import errno
import json
import os
import shutil
import tempfile
import weakref
from pathlib import Path

import numpy as np

__all__ = ["PopulationBacking", "save_population", "load_population"]

#: Environment variable naming the default parent directory for new
#: memmap backings (falls back to the system temp dir).
POP_DIR_ENV = "REPRO_POP_DIR"

_HEADER_NAME = "header.json"


def _default_parent() -> Path:
    root = os.environ.get(POP_DIR_ENV)
    return Path(root) if root else Path(tempfile.gettempdir())


def _remove_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


def _publish(src: Path, target: Path) -> None:
    """Rename the finished directory ``src`` onto ``target``.  When a
    concurrent writer got there first, its directory is kept (other
    processes may have it mapped) and ``src`` is dropped."""
    try:
        os.replace(src, target)
    except OSError:
        if not target.is_dir():
            raise
        _remove_dir(src)


class PopulationBacking:
    """Allocator + lifecycle for one population's arrays.

    Create with :meth:`create`, then :meth:`allocate` named arrays; the
    registry keeps ``{name: array}`` so IO and hashing can enumerate
    the columns.  Memmap backings own their directory by default and
    delete it on garbage collection unless :meth:`persist`-ed.

    >>> b = PopulationBacking.create("memmap")
    >>> a = b.allocate("x", (8,), np.int64)
    >>> a[:] = np.arange(8)
    >>> sorted(p.name for p in Path(b.dir).iterdir())
    ['x.npy']
    >>> d = Path(b.dir); b.close(); d.exists()
    False
    """

    def __init__(self, kind: str, dir: Path | None = None, owned: bool = False):
        if kind not in ("ram", "memmap"):
            raise ValueError(f"backing kind must be 'ram' or 'memmap', got {kind!r}")
        if kind == "memmap" and dir is None:
            raise ValueError("memmap backing needs a directory")
        self.kind = kind
        self.dir = Path(dir) if dir is not None else None
        self.owned = owned
        self.arrays: dict[str, np.ndarray] = {}
        self._finalizer = (
            weakref.finalize(self, _remove_dir, self.dir)
            if owned and self.dir is not None
            else None
        )

    # -- construction ---------------------------------------------------
    @classmethod
    def create(cls, kind: str, dir: str | Path | None = None) -> "PopulationBacking":
        """New backing; for ``memmap`` a fresh owned temp directory is
        made under ``dir`` (default: ``$REPRO_POP_DIR`` or the system
        temp dir)."""
        if kind == "ram":
            return cls("ram")
        parent = Path(dir) if dir is not None else _default_parent()
        parent.mkdir(parents=True, exist_ok=True)
        work = Path(tempfile.mkdtemp(prefix="repro-pop-", dir=parent))
        return cls("memmap", work, owned=True)

    # -- allocation -----------------------------------------------------
    def allocate(self, name: str, shape: tuple, dtype) -> np.ndarray:
        """A zero-initialised array of ``shape``/``dtype`` registered
        under ``name`` (a ``<name>.npy`` memmap file, or RAM)."""
        if name in self.arrays:
            raise ValueError(f"array {name!r} already allocated")
        if self.kind == "ram":
            arr = np.zeros(shape, dtype=dtype)
        else:
            arr = np.lib.format.open_memmap(
                self.dir / f"{name}.npy", mode="w+", dtype=np.dtype(dtype),
                shape=tuple(int(s) for s in shape),
            )
        self.arrays[name] = arr
        return arr

    def adopt(self, name: str, arr: np.ndarray) -> np.ndarray:
        """Register an externally produced array (RAM backing only for
        new columns; used when loading an existing directory)."""
        self.arrays[name] = arr
        return arr

    @property
    def nbytes(self) -> int:
        """Total payload bytes across registered arrays."""
        return int(sum(a.nbytes for a in self.arrays.values()))

    # -- lifecycle ------------------------------------------------------
    def flush(self) -> None:
        """Flush memmap pages to disk (no-op for RAM)."""
        for arr in self.arrays.values():
            if isinstance(arr, np.memmap):
                arr.flush()

    def persist(self, target: str | Path) -> Path:
        """Move an owned memmap directory to ``target`` and keep it.

        The open memmaps stay valid (file descriptors survive the
        rename).  Copies when ``target`` is on another filesystem.  If
        ``target`` already exists a concurrent builder won: its files
        are kept and this backing's directory is dropped.  Returns the
        final path.
        """
        if self.kind != "memmap":
            raise ValueError("only memmap backings can be persisted")
        target = Path(target)
        target.parent.mkdir(parents=True, exist_ok=True)
        self.flush()
        if not self.owned:
            raise ValueError("backing does not own its directory")
        try:
            _publish(self.dir, target)
        except OSError as exc:
            if exc.errno != errno.EXDEV:
                raise
            # Another filesystem: copy beside the target, then rename.
            tmp = Path(tempfile.mkdtemp(prefix=f".{target.name}.", dir=target.parent))
            shutil.copytree(self.dir, tmp, dirs_exist_ok=True)
            _publish(tmp, target)
            _remove_dir(self.dir)
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        self.dir = target
        self.owned = False
        return target

    def close(self) -> None:
        """Drop array references; delete the directory if owned."""
        self.arrays.clear()
        if self._finalizer is not None:
            self._finalizer()
            self._finalizer = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = str(self.dir) if self.dir else "ram"
        return f"PopulationBacking(kind={self.kind!r}, dir={where!r})"


# ----------------------------------------------------------------------
def _write_header(graph, dir: Path) -> None:
    """The ``header.json`` that makes a directory of columns loadable."""
    header = {
        "format_version": 1,
        "name": graph.name,
        "n_persons": graph.n_persons,
        "n_locations": graph.n_locations,
    }
    (dir / _HEADER_NAME).write_text(json.dumps(header, sort_keys=True))


def save_population(graph, target: str | Path) -> Path:
    """Write ``graph`` as a directory of ``.npy`` files + JSON header.

    The column-per-file layout is what makes populations *streamable*:
    each array loads back as a read-only memmap, so opening a saved
    10M-person population costs a few pages, not gigabytes.  Writing
    goes through a temp directory + ``os.replace`` so concurrent
    writers race benignly: if ``target`` already exists, it is kept.
    A graph on an owned memmap backing (fresh from the streamed
    generator) already holds its columns there, so its directory is
    renamed to ``target`` instead (:meth:`PopulationBacking.persist`).

    >>> import tempfile
    >>> from repro.synthpop import PopulationConfig
    >>> from repro.synthpop.stream import generate_population_streamed
    >>> g = generate_population_streamed(PopulationConfig(n_persons=40), 0)
    >>> d = save_population(g, Path(tempfile.mkdtemp()) / "pop.d")
    >>> load_population(d).n_persons
    40
    """
    target = Path(target)
    backing = getattr(graph, "backing", None)
    if backing is not None and backing.kind == "memmap" and backing.owned:
        _write_header(graph, backing.dir)
        return backing.persist(target)
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f".{target.name}.", dir=target.parent))
    try:
        _write_header(graph, tmp)
        for name, arr in _graph_columns(graph).items():
            out = np.lib.format.open_memmap(
                tmp / f"{name}.npy", mode="w+", dtype=arr.dtype, shape=arr.shape
            )
            # Chunked copy keeps the resident set bounded for huge columns.
            step = max(1, (1 << 25) // max(1, arr.itemsize))
            for lo in range(0, arr.shape[0], step):
                out[lo : lo + step] = arr[lo : lo + step]
            out.flush()
            del out
        _publish(tmp, target)
    except Exception:
        _remove_dir(tmp)
        raise
    return target


def load_population(path: str | Path):
    """Load a population saved by :func:`save_population`.

    Every column is a read-only ``np.memmap`` view — constant RAM
    regardless of population size.  The returned graph carries a
    non-owned backing (deleting the graph never deletes a persisted
    artifact).

    >>> import tempfile
    >>> from repro.synthpop import PopulationConfig
    >>> from repro.synthpop.stream import generate_population_streamed
    >>> g = generate_population_streamed(PopulationConfig(n_persons=30), 1)
    >>> d = save_population(g, Path(tempfile.mkdtemp()) / "p.d")
    >>> g2 = load_population(d)
    >>> g2.content_hash() == g.content_hash()
    True
    """
    from repro.synthpop.graph import PersonLocationGraph

    path = Path(path)
    header = json.loads((path / _HEADER_NAME).read_text())
    if header.get("format_version") != 1:
        raise ValueError(
            f"unsupported population format version {header.get('format_version')!r}"
        )
    backing = PopulationBacking("memmap", path, owned=False)

    def col(name, required=True):
        f = path / f"{name}.npy"
        if not f.exists():
            if required:
                raise ValueError(f"population dir {path} is missing {name}.npy")
            return None
        return backing.adopt(name, np.load(f, mmap_mode="r"))

    graph = PersonLocationGraph(
        name=header["name"],
        n_persons=int(header["n_persons"]),
        n_locations=int(header["n_locations"]),
        visit_person=col("visit_person"),
        visit_location=col("visit_location"),
        visit_subloc=col("visit_subloc"),
        visit_start=col("visit_start"),
        visit_end=col("visit_end"),
        location_n_sublocs=col("location_n_sublocs"),
        location_type=col("location_type"),
        person_age=col("person_age"),
        person_home=col("person_home"),
        person_region=col("person_region", required=False),
        location_region=col("location_region", required=False),
        backing=backing,
    )
    graph.validate()
    return graph


def _graph_columns(graph) -> dict[str, np.ndarray]:
    cols = {
        "visit_person": graph.visit_person,
        "visit_location": graph.visit_location,
        "visit_subloc": graph.visit_subloc,
        "visit_start": graph.visit_start,
        "visit_end": graph.visit_end,
        "location_n_sublocs": graph.location_n_sublocs,
        "location_type": graph.location_type,
        "person_age": graph.person_age,
        "person_home": graph.person_home,
    }
    if graph.person_region is not None:
        cols["person_region"] = graph.person_region
        cols["location_region"] = graph.location_region
    return cols
