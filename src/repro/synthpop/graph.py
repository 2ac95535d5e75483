"""The bipartite person–location visit graph.

This is the central data structure of the reproduction.  A
:class:`PersonLocationGraph` stores one *normative day* of visits as flat
NumPy arrays (structure-of-arrays, per the HPC guide's vectorisation
idiom), plus CSR-style indexes for iterating by person and by location.

Degrees and loads used throughout the paper:

* **person degree** — number of visits a person makes (avg 5.5); equals
  the number of "visit" messages the person generates, which is the
  person-phase load model (Section III-A).
* **location in-degree** — number of *unique visitors*; the paper's
  Figure 3(c) statistic, strongly correlated with the number of
  arrive/depart events.
* **location visit count** — number of visit edges incident to a
  location (2 events each), the input to the static load model.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field, replace
from typing import Iterator

import numpy as np

from repro import observe

__all__ = ["LocationType", "PersonLocationGraph", "MINUTES_PER_DAY"]

#: Simulated minutes in one time step (one simulation day).
MINUTES_PER_DAY = 1440

#: Rows per chunk when streaming over the visit table (≈ 32 MB of
#: int64 column per chunk) — bounds temporaries on memmap-backed graphs.
VISIT_CHUNK_ROWS = 1 << 22


class LocationType(enum.IntEnum):
    """Coarse activity types; interventions act on these.

    >>> int(LocationType.HOME), LocationType.SCHOOL.name
    (0, 'SCHOOL')
    """

    HOME = 0
    WORK = 1
    SCHOOL = 2
    SHOP = 3
    OTHER = 4


@dataclass
class PersonLocationGraph:
    """One day of visits in structure-of-arrays form.

    All visit arrays have equal length ``n_visits`` and are sorted by
    ``(visit_person, visit_start)``.  Invariants are checked by
    :meth:`validate`; generators and the splitLoc preprocessor must
    leave the structure valid.

    Parameters
    ----------
    name:
        Human-readable dataset label (e.g. ``"CA@0.001"``).
    n_persons, n_locations:
        Node counts of the two bipartite sides.
    visit_person, visit_location:
        Endpoint ids per visit edge.
    visit_subloc:
        Sublocation index *within* the visited location,
        ``0 <= visit_subloc[i] < location_n_sublocs[visit_location[i]]``.
    visit_start, visit_end:
        Visit interval in minutes, ``0 <= start < end <= 1440``.
    location_n_sublocs:
        Number of sublocations per location (≥ 1).
    location_type:
        :class:`LocationType` value per location.
    person_age:
        Age in years per person (drives school/work assignment and can
        modulate susceptibility).
    person_home:
        Home location id per person.

    >>> from repro.synthpop import PopulationConfig, generate_population
    >>> g = generate_population(PopulationConfig(n_persons=50), 0)
    >>> g.validate()
    >>> int(g.person_degrees.sum()) == g.n_visits
    True
    """

    name: str
    n_persons: int
    n_locations: int
    visit_person: np.ndarray
    visit_location: np.ndarray
    visit_subloc: np.ndarray
    visit_start: np.ndarray
    visit_end: np.ndarray
    location_n_sublocs: np.ndarray
    location_type: np.ndarray
    person_age: np.ndarray
    person_home: np.ndarray
    #: Optional geographic region per person / location (None = no
    #: regional structure).  Regions give the graph the spatial
    #: community structure of real populations: most visits stay local,
    #: which is what gives graph partitioning its locality to exploit.
    person_region: np.ndarray | None = None
    location_region: np.ndarray | None = None
    #: Where the arrays live (``repro.synthpop.store.PopulationBacking``
    #: or None for plain RAM arrays).  Carried so the backing's temp
    #: files share the graph's lifetime; content is identical either way.
    backing: object | None = field(default=None, repr=False, compare=False)
    # Lazily built CSR indexes (by-person, by-location and by-block
    # views).  Private and derived: not hashed, not stored; every field
    # here is listed in _INDEX_FIELDS so a new graph never inherits one.
    _person_ptr: np.ndarray | None = field(default=None, repr=False)
    _loc_order: np.ndarray | None = field(default=None, repr=False)
    _loc_ptr: np.ndarray | None = field(default=None, repr=False)
    _block_index: tuple | None = field(default=None, repr=False, compare=False)

    _INDEX_FIELDS = ("_person_ptr", "_loc_order", "_loc_ptr", "_block_index")

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def n_visits(self) -> int:
        """Number of visit edges."""
        return int(self.visit_person.shape[0])

    def iter_visit_chunks(
        self, chunk_rows: int = VISIT_CHUNK_ROWS, align_persons: bool = False
    ) -> Iterator[slice]:
        """Row slices covering the visit table in bounded pieces.

        The streaming access path for memmap-backed graphs: consumers
        accumulate per-chunk partial results (bincounts, load sums)
        instead of materialising O(n_visits) temporaries.  With
        ``align_persons=True`` chunk boundaries are snapped so no
        person's visits straddle two chunks (the visit arrays are
        person-sorted), which makes per-chunk pair deduplication exact.
        """
        n = self.n_visits
        chunk_rows = max(1, int(chunk_rows))
        lo = 0
        while lo < n:
            hi = min(n, lo + chunk_rows)
            if align_persons and hi < n:
                boundary_person = int(self.visit_person[hi - 1])
                # Extend until the person at the boundary is complete.
                while hi < n and int(self.visit_person[hi]) == boundary_person:
                    hi += 1
            yield slice(lo, hi)
            lo = hi

    @property
    def person_degrees(self) -> np.ndarray:
        """Visits per person (the person-phase message count).

        Accumulated chunk-by-chunk so partitioner inputs never hold the
        whole visit table in RAM on memmap-backed graphs.
        """
        out = np.zeros(self.n_persons, dtype=np.int64)
        for sl in self.iter_visit_chunks():
            out += np.bincount(self.visit_person[sl], minlength=self.n_persons)
        return out

    @property
    def location_visit_counts(self) -> np.ndarray:
        """Visit edges per location (2 DES events each); chunk-accumulated."""
        out = np.zeros(self.n_locations, dtype=np.int64)
        for sl in self.iter_visit_chunks():
            out += np.bincount(self.visit_location[sl], minlength=self.n_locations)
        return out

    def location_in_degrees(self) -> np.ndarray:
        """Unique visitors per location — the paper's Figure 3(c) metric.

        Chunked with person-aligned boundaries: a (location, person)
        pair can repeat only within one person's visit block, so
        per-chunk ``np.unique`` over pair keys is globally exact.
        """
        out = np.zeros(self.n_locations, dtype=np.int64)
        for sl in self.iter_visit_chunks(align_persons=True):
            pairs = np.unique(
                self.visit_location[sl].astype(np.int64) * self.n_persons
                + self.visit_person[sl].astype(np.int64)
            )
            out += np.bincount(pairs // self.n_persons, minlength=self.n_locations)
        return out

    def content_hash(self) -> str:
        """BLAKE2b digest of the graph's full content.

        Streamed over visit chunks, so hashing a memmap-backed graph
        never materialises it; bit-identical RAM and memmap populations
        hash identically (the property the streaming tests pin).
        """
        h = hashlib.blake2b(digest_size=16)
        h.update(f"{self.n_persons},{self.n_locations};".encode())
        cols = [
            ("visit_person", self.visit_person),
            ("visit_location", self.visit_location),
            ("visit_subloc", self.visit_subloc),
            ("visit_start", self.visit_start),
            ("visit_end", self.visit_end),
            ("location_n_sublocs", self.location_n_sublocs),
            ("location_type", self.location_type),
            ("person_age", self.person_age),
            ("person_home", self.person_home),
        ]
        if self.person_region is not None:
            cols.append(("person_region", self.person_region))
            cols.append(("location_region", self.location_region))
        for name, arr in cols:
            h.update(f"{name}:{arr.dtype.str};".encode())
            step = max(1, (1 << 25) // max(1, arr.itemsize))
            for lo in range(0, arr.shape[0], step):
                h.update(np.ascontiguousarray(arr[lo : lo + step]).tobytes())
        return h.hexdigest()

    # ------------------------------------------------------------------
    # CSR indexes
    # ------------------------------------------------------------------
    def person_visit_slices(self) -> np.ndarray:
        """CSR pointer over visits grouped by person.

        ``visits of person p`` are rows ``ptr[p]:ptr[p+1]`` (the visit
        arrays are already person-sorted).  Built with the block index,
        by the same pass (:meth:`block_visit_index`).
        """
        if self._person_ptr is None:
            self._build_visit_indexes()
        return self._person_ptr

    def location_visit_index(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(order, ptr)`` grouping visit rows by location.

        ``order[ptr[l]:ptr[l+1]]`` are the visit row indices incident to
        location ``l``, sorted by location then by start time — exactly
        the order in which a LocationManager receives and enqueues them.
        """
        if self._loc_order is None:
            key = self.visit_location.astype(np.int64) * (MINUTES_PER_DAY + 1) + self.visit_start
            order = np.argsort(key, kind="stable")
            counts = self.location_visit_counts
            ptr = np.zeros(self.n_locations + 1, dtype=np.int64)
            np.cumsum(counts, out=ptr[1:])
            self._loc_order = order
            self._loc_ptr = ptr
        return self._loc_order, self._loc_ptr

    def block_visit_index(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(order, ptr, sub_off)`` grouping visit rows by block.

        Sublocation ``s`` of location ``l`` is the dense block
        ``b = sub_off[l] + s`` (``sub_off`` the exclusive prefix sum of
        ``location_n_sublocs``); ``order[ptr[b]:ptr[b+1]]`` are its
        visit rows, ascending.  ``order`` is the permutation
        ``np.argsort(block, kind="stable")`` gives: a C counting sort, or
        without the library one sort of the distinct keys ``block <<
        row_bits | row``.  8 B per visit + 8 B per block, built on first
        use together with :meth:`person_visit_slices`; an out-of-range id,
        or a ``visit_person`` that descends, raises ``ValueError`` naming
        its column on both paths.
        """
        if self._block_index is None:
            self._build_visit_indexes()
        return self._block_index

    def _build_visit_indexes(self) -> None:
        """The block index and the person index (:meth:`person_visit_slices`):
        one C counting sort that reads the three id columns once to count
        both, or without the library one sort of the distinct keys
        ``block << row_bits | row`` and a ``bincount`` of ``visit_person``."""
        from repro.core import ckernel  # lazy: synthpop imports no core at load
        sub_bounds = np.zeros(self.n_locations + 1, dtype=np.int64)
        np.cumsum(self.location_n_sublocs, dtype=np.int64, out=sub_bounds[1:])
        sub_off, n_blocks = sub_bounds[:-1], int(sub_bounds[-1])
        with observe.span("graph.block_index", visits=self.n_visits, blocks=n_blocks):
            if ckernel.available():
                order, ptr, person_ptr = ckernel.block_index(self, sub_bounds)
            else:
                self._check_visit_ids()
                order = sub_off[self.visit_location]
                order += self.visit_subloc  # the block ids, for now
                ptr = np.zeros(n_blocks + 1, dtype=np.int64)
                np.cumsum(np.bincount(order, minlength=n_blocks), out=ptr[1:])
                row_bits = (self.n_visits - 1).bit_length()
                if row_bits + (n_blocks - 1).bit_length() > 63:
                    raise OverflowError("block << row_bits | row overflows int64")
                order <<= row_bits
                order |= np.arange(self.n_visits)
                order.sort()
                order &= (1 << row_bits) - 1
                person_ptr = np.zeros(self.n_persons + 1, dtype=np.int64)
                np.cumsum(np.bincount(self.visit_person, minlength=self.n_persons),
                          out=person_ptr[1:])
            self._block_index, self._person_ptr = (order, ptr, sub_off), person_ptr

    def _check_visit_ids(self) -> None:
        """``ValueError`` naming the column if a visit's location, room or
        person does not exist, or ``visit_person`` descends."""
        loc, sub, n_sub = self.visit_location, self.visit_subloc, self.location_n_sublocs
        if loc.size and (loc.min() < 0 or loc.max() >= n_sub.size):
            raise ValueError("visit_location out of range")
        if sub.size and (sub.min() < 0 or (sub >= n_sub[loc]).any()):
            raise ValueError("visit_subloc out of range")
        person = self.visit_person
        if (person[1:] < person[:-1]).any():  # else the ends are the extremes
            if person.min() < 0 or person.max() >= self.n_persons:
                raise ValueError("visit_person out of range")
            raise ValueError("visit_person is not sorted")
        if person.size and (person[0] < 0 or person[-1] >= self.n_persons):
            raise ValueError("visit_person out of range")

    def invalidate_indexes(self) -> None:
        """Drop cached CSR indexes after in-place mutation."""
        for name in self._INDEX_FIELDS:
            setattr(self, name, None)

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check all structural invariants; raise ``ValueError`` on breakage."""
        nv = self.n_visits
        for arr_name in ("visit_location", "visit_subloc", "visit_start", "visit_end"):
            arr = getattr(self, arr_name)
            if arr.shape[0] != nv:
                raise ValueError(f"{arr_name} has length {arr.shape[0]}, expected {nv}")
        if self.location_n_sublocs.shape[0] != self.n_locations:
            raise ValueError("location_n_sublocs length mismatch")
        if self.location_type.shape[0] != self.n_locations:
            raise ValueError("location_type length mismatch")
        if self.person_age.shape[0] != self.n_persons:
            raise ValueError("person_age length mismatch")
        if self.person_home.shape[0] != self.n_persons:
            raise ValueError("person_home length mismatch")
        if nv:
            self._check_visit_ids()
            if np.any(self.visit_start < 0) or np.any(self.visit_end > MINUTES_PER_DAY):
                raise ValueError("visit interval outside [0, 1440]")
            if np.any(self.visit_end <= self.visit_start):
                raise ValueError("visit with non-positive duration")
        if np.any(self.location_n_sublocs < 1):
            raise ValueError("every location needs at least one sublocation")
        if self.n_persons and (
            self.person_home.min() < 0 or self.person_home.max() >= self.n_locations
        ):
            raise ValueError("person_home out of range")
        if (self.person_region is None) != (self.location_region is None):
            raise ValueError("person_region and location_region must both be set or unset")
        if self.person_region is not None:
            if self.person_region.shape[0] != self.n_persons:
                raise ValueError("person_region length mismatch")
            if self.location_region.shape[0] != self.n_locations:
                raise ValueError("location_region length mismatch")

    # ------------------------------------------------------------------
    # summaries & transforms
    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """Table-I style summary row."""
        deg = self.person_degrees
        return {
            "name": self.name,
            "visits": self.n_visits,
            "people": self.n_persons,
            "locations": self.n_locations,
            "person_degree_mean": float(deg.mean()) if self.n_persons else 0.0,
            "person_degree_std": float(deg.std()) if self.n_persons else 0.0,
            "location_degree_mean": (
                float(self.n_visits / self.n_locations) if self.n_locations else 0.0
            ),
        }

    def with_visits(
        self,
        visit_person: np.ndarray,
        visit_location: np.ndarray,
        visit_subloc: np.ndarray,
        visit_start: np.ndarray,
        visit_end: np.ndarray,
        *,
        n_locations: int | None = None,
        location_n_sublocs: np.ndarray | None = None,
        location_type: np.ndarray | None = None,
        location_region: np.ndarray | None = None,
        name: str | None = None,
    ) -> "PersonLocationGraph":
        """Functional update returning a new graph with replaced visit/location arrays.

        Re-sorts visits by (person, start) so the CSR invariant holds.
        Used by splitLoc and by interventions that rewrite schedules.
        Callers that change ``n_locations`` on a regional graph must
        supply the new ``location_region``.
        """
        order = np.lexsort((visit_start, visit_person))
        new_n_locations = self.n_locations if n_locations is None else int(n_locations)
        new_loc_region = self.location_region if location_region is None else location_region
        if (
            new_loc_region is not None
            and new_loc_region.shape[0] != new_n_locations
        ):
            raise ValueError(
                "location count changed on a regional graph: pass location_region"
            )
        g = replace(
            self,
            name=self.name if name is None else name,
            n_locations=new_n_locations,
            location_region=new_loc_region,
            visit_person=np.ascontiguousarray(visit_person[order]),
            visit_location=np.ascontiguousarray(visit_location[order]),
            visit_subloc=np.ascontiguousarray(visit_subloc[order]),
            visit_start=np.ascontiguousarray(visit_start[order]),
            visit_end=np.ascontiguousarray(visit_end[order]),
            location_n_sublocs=(
                self.location_n_sublocs if location_n_sublocs is None else location_n_sublocs
            ),
            location_type=self.location_type if location_type is None else location_type,
            **dict.fromkeys(self._INDEX_FIELDS),
        )
        return g

    def bipartite_adjacency(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Collapse visits to a weighted bipartite edge list.

        Returns ``(person_ids, location_ids, weights)`` where weight is
        the number of visits on that (person, location) pair — the edge
        weight handed to the graph partitioner.  Deduplication runs per
        person-aligned chunk (pairs never straddle chunks, and persons
        ascend across chunks, so concatenated per-chunk uniques are the
        exact global edge list) — the O(n_visits) temporaries of the
        one-shot ``np.unique`` never exist; only the O(n_edges) output
        does.
        """
        ids: list[np.ndarray] = []
        cnts: list[np.ndarray] = []
        for sl in self.iter_visit_chunks(align_persons=True):
            key = (
                self.visit_person[sl].astype(np.int64) * self.n_locations
                + self.visit_location[sl]
            )
            u, c = np.unique(key, return_counts=True)
            ids.append(u)
            cnts.append(c)
        uniq = np.concatenate(ids) if ids else np.empty(0, dtype=np.int64)
        counts = np.concatenate(cnts) if cnts else np.empty(0, dtype=np.int64)
        return (
            (uniq // self.n_locations).astype(np.int64),
            (uniq % self.n_locations).astype(np.int64),
            counts.astype(np.int64),
        )
