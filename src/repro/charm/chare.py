"""Chares, chare arrays, proxies.

Mirrors the Charm++ abstractions of paper §II-C: applications
over-decompose into many more chares than PEs; arrays of chares are
mapped to PEs by a placement vector (round-robin or partitioner-driven,
§III-B); entry methods are invoked by messages.

In this simulator an entry method is a plain Python method.  Inside an
entry method the chare may:

* ``self.charge(seconds)``   — account modelled compute time,
* ``self.send(...)``         — message another chare,
* ``self.send_via(...)``     — message through an aggregation channel,
* ``self.send_many_via(...)`` — a whole array of such messages in one
  call (one record batch per flush instead of one object per record),
* ``self.contribute(...)``   — join a reduction,
* ``self.now()``             — read the PE's virtual clock.

State mutation is real (the epidemic actually runs); only time is
modelled.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.charm.aggregation import RecordBatch

__all__ = ["Chare", "ChareArray", "ChareProxy"]


class Chare:
    """Base class for simulated chares.

    Instances are created by :class:`ChareArray`; the runtime injects
    ``runtime``, ``array_name``, ``index`` and ``pe`` before any entry
    method runs.
    """

    runtime: "RuntimeSimulator"
    array_name: str
    index: int
    pe: int

    # -- services available inside entry methods -----------------------
    def charge(self, seconds: float) -> None:
        """Charge modelled compute time to the current entry execution."""
        self.runtime._charge(seconds)

    def now(self) -> float:
        """Virtual time at which the current entry execution started."""
        return self.runtime.current_time

    def send(
        self,
        array: str,
        index: int,
        method: str,
        payload: Any = None,
        payload_bytes: int = 8,
    ) -> None:
        """Send a message to another chare (departs when this entry ends)."""
        self.runtime._send_from_entry(self.pe, array, index, method, payload, payload_bytes)

    def send_via(
        self,
        channel: str,
        array: str,
        index: int,
        method: str,
        payload: Any = None,
        payload_bytes: int = 8,
    ) -> None:
        """Send through a named aggregation channel (paper §IV-C)."""
        self.runtime._send_aggregated(self.pe, channel, array, index, method, payload, payload_bytes)

    def send_many_via(
        self,
        channel: str,
        array: str,
        indices: np.ndarray,
        method: str,
        payloads: np.ndarray,
        payload_bytes: int = 8,
    ) -> None:
        """Send ``payloads[i]`` to ``array[indices[i]]`` for every ``i``
        through a named aggregation channel.

        Modelled exactly as the loop of :meth:`send_via` calls — same
        wire messages, in the same order — but the records travel as
        columnar batches, and ``method`` is invoked once per (flushed
        batch, target chare) with that chare's slice of ``payloads``.
        """
        batch = RecordBatch(
            array, method, np.asarray(indices, dtype=np.int64), np.asarray(payloads),
            payload_bytes,
        )
        self.runtime._send_many_aggregated(self.pe, channel, batch)

    def contribute(self, reduction: str, value: Any) -> None:
        """Contribute this chare's share to a named reduction."""
        self.runtime._contribute(self.pe, reduction, value)


class ChareProxy:
    """Handle for messaging an array element from outside any chare."""

    def __init__(self, runtime: "RuntimeSimulator", array: str, index: int):
        self._runtime = runtime
        self._array = array
        self._index = index

    def invoke(self, method: str, payload: Any = None, payload_bytes: int = 8) -> None:
        """Inject a message from 'outside' (e.g. program main on PE 0)."""
        self._runtime.inject(self._array, self._index, method, payload, payload_bytes)


class ChareArray:
    """A distributed array of chares with an explicit placement.

    Parameters
    ----------
    name:
        Array identifier used in message addressing.
    factory:
        Callable ``index -> Chare`` constructing each element.
    placement:
        Array of PE ids, one per element — the object-to-PE mapping the
        paper's data-distribution strategies (RR, GP, …) produce.
    """

    def __init__(self, name: str, factory: Callable[[int], Chare], placement: np.ndarray):
        self.name = name
        self.placement = np.asarray(placement, dtype=np.int64)
        if self.placement.ndim != 1 or self.placement.size == 0:
            raise ValueError("placement must be a non-empty 1-D array of PE ids")
        self.elements: dict[int, Chare] = {}
        self._factory = factory

    @property
    def n_elements(self) -> int:
        return int(self.placement.size)

    def pe_of(self, index: int) -> int:
        return int(self.placement[index])

    def element(self, index: int) -> Chare:
        """Element accessor (constructed lazily)."""
        el = self.elements.get(index)
        if el is None:
            if not (0 <= index < self.n_elements):
                raise IndexError(f"{self.name}[{index}] out of range")
            el = self._factory(index)
            el.array_name = self.name
            el.index = index
            el.pe = self.pe_of(index)
            self.elements[index] = el
        return el

    def elements_on_pe(self, pe: int) -> list[int]:
        return np.flatnonzero(self.placement == pe).tolist()
