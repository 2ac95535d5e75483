"""The discrete-event runtime simulator (PDES engine).

Executes a chare program under virtual time.  Three resource classes
are modelled, each with its own clock:

* **compute PEs** — run entry methods; an execution occupies the PE for
  the time the entry method ``charge()``d plus per-message CPU costs;
* **comm threads** — one per OS process in SMP mode; serialise the
  per-message send/receive progression costs (paper §IV-A);
* **the wire** — pure latency (α + β·bytes per tier), uncontended.

Event processing pops the globally earliest event; every resource
reservation starts at ``max(event time, resource clock)``, which keeps
FIFO service correct because later-popped events carry later
timestamps.

A hidden per-PE *agent* chare array (``__pe__``) implements the
machinery that Charm++ provides natively: spanning-tree broadcasts and
reductions (:mod:`repro.charm.reduction`), dispatch of aggregated
batches (:mod:`repro.charm.aggregation`), and the wave protocols of
completion/quiescence detection (:mod:`repro.charm.completion`).
All of it runs as real simulated messages, so protocol costs appear in
the virtual timeline with the right scaling.
"""

from __future__ import annotations

import heapq
import itertools
from collections import Counter
from typing import Any, Callable

import numpy as np

from repro.charm.aggregation import AggregationRecord, MessageAggregator, RecordBatch
from repro.charm.tram import TramChannel, TramRecord
from repro.charm.chare import Chare, ChareArray, ChareProxy
from repro.charm.machine import Machine, MachineConfig
from repro.charm.messages import CONTROL_BYTES, Message
from repro.charm.network import NetworkModel
from repro.charm.reduction import ReductionRound, ReductionSpec, ReductionTree
from repro import observe
from repro.util.timing import CostAccumulator

__all__ = ["RuntimeSimulator"]

#: Modelled cost of dispatching one record out of an aggregated batch.
DISPATCH_OVERHEAD = 1.0e-7
#: Modelled cost of one local reduction combine / broadcast delivery.
LOCAL_OP_OVERHEAD = 5.0e-8

_EXEC, _COMM_SEND, _COMM_RECV = 0, 1, 2


class _PEAgent(Chare):
    """Hidden per-PE system chare: collectives, batches, CD waves."""

    # -- aggregated batch dispatch -------------------------------------
    def _dispatch(self, chunk: RecordBatch) -> None:
        """Charge DISPATCH_OVERHEAD per record as a running sum, the float
        order of one ``charge()`` each (not ``n * x``): ``np.add.accumulate``
        over ``[charge, x, x, …]`` adds strictly left to right."""
        steps = np.full(len(chunk) + 1, DISPATCH_OVERHEAD)
        steps[0] = self.runtime._exec_charge
        self.runtime._exec_charge = float(np.add.accumulate(steps)[-1])

    def _deliver(self, chunk: RecordBatch) -> None:
        """Invoke the entry method once per target chare of ``chunk``."""
        for index, payloads in chunk.by_target():
            self.runtime._invoke_inline(chunk.array, index, chunk.method, payloads)

    def recv_batch(self, payload) -> None:
        _channel, chunks = payload
        for chunk in chunks:
            self._dispatch(chunk)
            self._deliver(chunk)

    # -- broadcast fan-out ----------------------------------------------
    def bcast(self, payload) -> None:
        array, method, data, payload_bytes = payload
        rt = self.runtime
        # Forward down the tree *eagerly* — before delivering to local
        # elements — otherwise a parent's local work would serialise the
        # whole subtree behind it (Charm++ forwards immediately).
        for child in rt.tree.children(self.pe):
            rt._send_eager(self.pe, "__pe__", child, "bcast", payload, payload_bytes)
        for idx in rt._local_elements(array, self.pe):
            self.charge(LOCAL_OP_OVERHEAD)
            rt._invoke_inline(array, idx, method, data)

    # -- reduction upward pass -------------------------------------------
    def reduce_partial(self, payload) -> None:
        name, value = payload
        self.charge(LOCAL_OP_OVERHEAD)
        self.runtime._reduction_child_arrived(self.pe, name, value)

    # -- TRAM mesh forwarding -----------------------------------------------
    def tram_batch(self, payload) -> None:
        channel, chunks = payload
        rt = self.runtime
        chan = rt.aggregators[channel]
        for chunk in chunks:
            self._dispatch(chunk)
            dst_pes = rt.arrays[chunk.array].placement[chunk.indices]
            onward = dst_pes != self.pe
            if onward.any():
                for hop, batch in chan.append_many(
                    self.pe, dst_pes[onward], chunk.take(onward), count_in=False
                ):
                    rt._emit_batch(channel, hop, batch)
                chunk = chunk.take(~onward)
            self._deliver(chunk)
        # Intermediates forward what they re-aggregated immediately so the
        # phase drains without a distributed termination protocol.
        rt.flush_channel(channel, self.pe)

    # -- completion/quiescence detection wave ------------------------------
    def sync_ask(self, name: str) -> None:
        det = self.runtime._detectors[name]
        self.charge(LOCAL_OP_OVERHEAD)
        self.contribute(f"__sync_{name}", det.local_counts(self.pe))


class RuntimeSimulator:
    """Simulated Charm++-like runtime.

    Typical use::

        rt = RuntimeSimulator(MachineConfig(n_nodes=4))
        rt.create_array("pm", factory, placement)
        rt.register_reduction("stats", combine=operator.add,
                              arrays=["pm"], target=("driver", 0, "on_stats"))
        rt.inject("driver", 0, "start")
        rt.run()
        print(rt.current_time)
    """

    def __init__(
        self,
        machine: MachineConfig | Machine,
        network: NetworkModel | None = None,
        validate: bool = False,
    ):
        self.machine = machine if isinstance(machine, Machine) else Machine(machine)
        self.network = network or NetworkModel()
        #: enable runtime-level invariant checks (drained aggregation
        #: buffers at exit, sane detector counters — see repro.validate)
        self.validate = validate
        n = self.machine.n_pes
        self.tree = ReductionTree(n)
        self.current_time = 0.0
        self.pe_clock = np.zeros(n)
        self.comm_clock = np.zeros(self.machine.n_processes)
        self.pe_costs = [CostAccumulator() for _ in range(n)]
        self.msg_counter: Counter = Counter()
        self.bytes_counter: Counter = Counter()
        self.arrays: dict[str, ChareArray] = {}
        self.aggregators: dict[str, MessageAggregator] = {}
        self._reductions: dict[str, ReductionSpec] = {}
        self._red_rounds: dict[str, dict[int, ReductionRound]] = {}
        self._heap: list = []
        self._tick = itertools.count()
        self._exec_pe: int | None = None
        self._exec_charge: float = 0.0
        #: the running entry's eager send costs: in its charge, booked as comm
        self._exec_eager: float = 0.0
        self._outbox: list[tuple[str, int, str, Any, int]] = []
        self._local_elem_cache: dict[tuple[str, int], list[int]] = {}
        self._detectors: dict[str, "SyncProtocol"] = {}
        #: accumulated compute per (array, index) for arrays with cost
        #: tracking enabled — the measurement feed of the LB framework.
        self.chare_costs: dict[tuple[str, int], float] = {}
        self._tracked_arrays: set[str] = set()
        self._reduction_arrays: dict[str, list[str]] = {}
        # Hook for completion detectors: called as (event, **info).
        self._sync_listeners: list[Callable[[str, dict], None]] = []
        self._events_processed = 0
        #: (src PE, dst PE, wire bytes) -> (costs, tier, crosses process); never
        #: stale: the machine is fixed and NetworkModel is frozen
        self._routes: dict[tuple[int, int, int], tuple] = {}

    # ------------------------------------------------------------------
    # setup API
    # ------------------------------------------------------------------
    def create_array(
        self, name: str, factory: Callable[[int], Chare], placement: np.ndarray
    ) -> ChareArray:
        """Create a chare array; placement maps element -> PE."""
        if name in self.arrays:
            raise ValueError(f"array {name!r} already exists")
        placement = np.asarray(placement, dtype=np.int64)
        if placement.size and (placement.min() < 0 or placement.max() >= self.machine.n_pes):
            raise ValueError("placement references a PE outside the machine")
        arr = ChareArray(name, factory, placement)
        self.arrays[name] = arr
        return arr

    def proxy(self, array: str, index: int) -> ChareProxy:
        return ChareProxy(self, array, index)

    def create_channel(self, name: str, buffer_bytes: int) -> MessageAggregator:
        """Create a named direct (per destination PE) aggregation channel."""
        agg = MessageAggregator(name, buffer_bytes)
        self.aggregators[name] = agg
        return agg

    def create_tram_channel(self, name: str, buffer_bytes: int) -> TramChannel:
        """Create a TRAM-style mesh-routed aggregation channel."""
        chan = TramChannel(name, self.machine.n_pes, buffer_bytes)
        self.aggregators[name] = chan
        self.ensure_pe_agents()
        return chan

    def register_reduction(
        self,
        name: str,
        combine: Callable[[Any, Any], Any],
        arrays: list[str],
        target: tuple[str, int, str],
    ) -> None:
        """Register a reusable reduction over all elements of ``arrays``."""
        expected: dict[int, int] = {pe: 0 for pe in range(self.machine.n_pes)}
        for aname in arrays:
            arr = self.arrays[aname]
            for pe in arr.placement:
                expected[int(pe)] += 1
        self._reductions[name] = ReductionSpec.build(
            name, combine, expected, target, self.tree
        )
        self._red_rounds[name] = {}
        self._reduction_arrays[name] = list(arrays)

    def enable_chare_cost_tracking(self, array: str) -> None:
        """Accumulate per-element compute costs for ``array``."""
        if array not in self.arrays:
            raise ValueError(f"unknown array {array!r}")
        self._tracked_arrays.add(array)

    def migrate_array(self, array: str, new_placement: np.ndarray) -> dict:
        """Move an array's elements to a new placement (LB migration).

        Must be called between phases (no in-flight messages addressed
        to the array).  Recomputes reduction bookkeeping and returns a
        summary ``{"moved": n, "bytes_per_pe": array}`` for the caller's
        migration cost model.
        """
        arr = self.arrays[array]
        new_placement = np.asarray(new_placement, dtype=np.int64)
        if new_placement.shape != arr.placement.shape:
            raise ValueError("placement shape mismatch")
        if new_placement.size and (
            new_placement.min() < 0 or new_placement.max() >= self.machine.n_pes
        ):
            raise ValueError("placement references a PE outside the machine")
        moved = np.flatnonzero(new_placement != arr.placement)
        arr.placement = new_placement
        for idx, chare in arr.elements.items():
            chare.pe = arr.pe_of(idx)
        self._local_elem_cache = {
            k: v for k, v in self._local_elem_cache.items() if k[0] != array
        }
        # Rebuild reduction specs that involve this array.
        for name, arrays in self._reduction_arrays.items():
            if array not in arrays:
                continue
            spec = self._reductions[name]
            expected: dict[int, int] = {pe: 0 for pe in range(self.machine.n_pes)}
            for aname in arrays:
                for pe in self.arrays[aname].placement:
                    expected[int(pe)] += 1
            self._reductions[name] = ReductionSpec.build(
                name, spec.combine, expected, spec.target, self.tree
            )
        return {"moved": int(moved.size), "indices": moved}

    def advance_all_pes(self, seconds: float) -> None:
        """Charge a global synchronous delay (e.g. an LB migration step)."""
        if seconds < 0:
            raise ValueError("cannot advance by negative time")
        horizon = float(self.pe_clock.max()) + seconds
        self.pe_clock[:] = np.maximum(self.pe_clock, horizon)

    def add_sync_listener(self, fn: Callable[[str, dict], None]) -> None:
        self._sync_listeners.append(fn)

    def notify_sync(self, event: str, **info) -> None:
        """Broadcast a protocol event to completion detectors."""
        for fn in self._sync_listeners:
            fn(event, info)

    # ------------------------------------------------------------------
    # program-facing messaging
    # ------------------------------------------------------------------
    def inject(
        self, array: str, index: int, method: str, payload: Any = None, payload_bytes: int = 8
    ) -> None:
        """Inject an external message (program main) at the current time."""
        msg = Message(array, index, method, payload, payload_bytes, src_pe=-1)
        self._push(self.current_time, _EXEC, (msg, 0.0))

    def broadcast(
        self, array: str, method: str, payload: Any = None, payload_bytes: int = CONTROL_BYTES
    ) -> None:
        """Tree broadcast to every element of ``array`` (callable from entries)."""
        wrapped = (array, method, payload, payload_bytes)
        if self._exec_pe is None:
            self.inject("__pe__", 0, "bcast", wrapped, payload_bytes)
        else:
            self._send_from_entry(self._exec_pe, "__pe__", 0, "bcast", wrapped, payload_bytes)

    # -- internals used by Chare ---------------------------------------
    def _charge(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("cannot charge negative time")
        self._exec_charge += seconds

    def _send_from_entry(
        self, src_pe: int, array: str, index: int, method: str, payload: Any, payload_bytes: int
    ) -> None:
        self._outbox.append((array, index, method, payload, payload_bytes))

    def _send_eager(
        self, src_pe: int, array: str, index: int, method: str, payload: Any, payload_bytes: int
    ) -> None:
        """Send departing *now* (at the current point within the running
        entry) instead of after the entry completes.  Used by protocol
        fan-out where forwarding latency must not stack behind local
        work."""
        msg = Message(array, index, method, payload, payload_bytes, src_pe=src_pe)
        t_dep = self.current_time + self._exec_charge
        src_cost = self._route(src_pe, msg, t_dep)
        self._charge(src_cost)
        self._exec_eager += src_cost
        self.pe_costs[src_pe].add("comm", src_cost)

    def _send_aggregated(
        self, src_pe: int, channel: str, array: str, index: int, method: str,
        payload: Any, payload_bytes: int,
    ) -> None:
        agg = self.aggregators[channel]
        dst_pe = self.arrays[array].pe_of(index)
        rec = AggregationRecord(array, index, method, payload, payload_bytes)
        if isinstance(agg, TramChannel):
            out = agg.append(src_pe, TramRecord(dst_pe, rec))
            if out is not None:
                self._emit_batch(channel, *out)
            return
        batch = agg.append(src_pe, dst_pe, rec)
        if batch is not None:
            self._emit_batch(channel, dst_pe, batch)

    def _send_many_aggregated(self, src_pe: int, channel: str, batch: RecordBatch) -> None:
        dst_pes = self.arrays[batch.array].placement[batch.indices]
        for pe, chunks in self.aggregators[channel].append_many(src_pe, dst_pes, batch):
            self._emit_batch(channel, pe, chunks)

    def flush_channel(self, channel: str, src_pe: int) -> None:
        """End-of-phase flush of one PE's aggregation buffers."""
        for pe, chunks in self.aggregators[channel].flush(src_pe):
            self._emit_batch(channel, pe, chunks)

    def _emit_batch(self, channel: str, pe: int, chunks: list[RecordBatch]) -> None:
        """Queue one flushed buffer as one wire message to ``pe``'s agent."""
        agg = self.aggregators[channel]
        nbytes = sum((c.payload_bytes + agg.header_bytes) * len(c) for c in chunks)
        self._outbox.append(("__pe__", pe, agg.agent_entry, (channel, chunks), nbytes))

    def _contribute(self, pe: int, name: str, value: Any) -> None:
        spec = self._reductions[name]
        rnd = self._red_rounds[name].setdefault(pe, ReductionRound())
        self._charge(LOCAL_OP_OVERHEAD)
        rnd.add(spec.combine, value)
        rnd.received_elements += 1
        self._maybe_send_partial(pe, name)

    def _reduction_child_arrived(self, pe: int, name: str, value: Any) -> None:
        spec = self._reductions[name]
        rnd = self._red_rounds[name].setdefault(pe, ReductionRound())
        rnd.add(spec.combine, value)
        rnd.received_children += 1
        self._maybe_send_partial(pe, name)

    def _maybe_send_partial(self, pe: int, name: str) -> None:
        spec = self._reductions[name]
        rnd = self._red_rounds[name].get(pe)
        if rnd is None:
            return
        if rnd.received_elements < spec.expected_local.get(pe, 0):
            return
        if rnd.received_children < spec.n_children.get(pe, 0):
            return
        # Round complete at this PE: forward partial (or deliver at root).
        del self._red_rounds[name][pe]
        parent = self.tree.parent(pe)
        if parent is None:
            array, index, method = spec.target
            self._outbox.append((array, index, method, rnd.partial, CONTROL_BYTES))
        else:
            self._outbox.append(
                ("__pe__", parent, "reduce_partial", (name, rnd.partial), CONTROL_BYTES)
            )

    # ------------------------------------------------------------------
    # event machinery
    # ------------------------------------------------------------------
    def _push(self, time: float, kind: int, data) -> None:
        heapq.heappush(self._heap, (time, next(self._tick), kind, data))

    def _prepare_chare(self, chare: Chare) -> None:
        chare.runtime = self

    def _invoke_inline(self, array: str, index: int, method: str, payload: Any) -> None:
        """Run an entry method inline within the current execution,
        attributing its charge to the target chare for cost tracking."""
        target = self.arrays[array].element(index)
        target.runtime = self
        before = self._exec_charge
        getattr(target, method)(payload)
        if array in self._tracked_arrays:
            key = (array, index)
            # Parenthesised so an entry that charges nothing adds exactly
            # 0.0, however many records its delivery was split into.
            self.chare_costs[key] = self.chare_costs.get(key, 0.0) + (
                self._exec_charge - before
            )

    def _local_elements(self, array: str, pe: int) -> list[int]:
        key = (array, pe)
        cached = self._local_elem_cache.get(key)
        if cached is None:
            cached = self.arrays[array].elements_on_pe(pe)
            self._local_elem_cache[key] = cached
        return cached

    def _route(self, src_pe: int, msg: Message, t_dep: float) -> float:
        """Schedule delivery of ``msg``; return the src CPU cost paid inline."""
        dst_pe = self.arrays[msg.array].pe_of(msg.index)
        nbytes = msg.wire_bytes()
        route = self._routes.get((src_pe, dst_pe, nbytes))
        if route is None:
            costs = self.network.message_costs(self.machine, src_pe, dst_pe, nbytes)
            crosses = not self.machine.same_process(src_pe, dst_pe)
            tier = (
                "intra_process" if not crosses
                else "intra_node" if self.machine.same_node(src_pe, dst_pe) else "inter_node"
            )
            route = self._routes[src_pe, dst_pe, nbytes] = (costs, tier, crosses)
        costs, tier, crosses = route
        self.msg_counter[tier] += 1
        self.bytes_counter[tier] += nbytes
        if crosses and self.machine.config.smp:
            # PE hands off to its comm thread.
            self._push(t_dep + costs.src_cpu, _COMM_SEND, (src_pe, dst_pe, msg, costs))
        else:
            self._push(t_dep + costs.src_cpu + costs.latency, _EXEC, (msg, costs.dst_cpu))
        return costs.src_cpu

    def _execute(self, t: float, msg: Message, dst_cpu: float) -> None:
        array = self.arrays[msg.array]
        pe = array.pe_of(msg.index)
        start = max(t, self.pe_clock[pe])
        self.pe_costs[pe].add("idle", max(0.0, start - self.pe_clock[pe]))
        self.current_time = start
        prev = (self._exec_pe, self._exec_charge, self._outbox, self._exec_eager)
        self._exec_pe, self._exec_charge, self._outbox, self._exec_eager = pe, dst_cpu, [], 0.0
        chare = array.element(msg.index)
        chare.runtime = self
        chare.array_name = msg.array
        chare.index = msg.index
        chare.pe = pe
        # While observed: a wall-clock span around the entry method, and
        # its modelled interval as a virtual span once departures are paid.
        obs = observe.active()
        if obs is None:
            getattr(chare, msg.method)(msg.payload)
        else:
            with observe.span("charm.entry", array=msg.array, method=msg.method, pe=pe):
                getattr(chare, msg.method)(msg.payload)
        charge = self._exec_charge
        # Non-SMP layouts pay compute interference from inline network
        # progression (NetworkModel.non_smp_compute_interference); a
        # single-PE machine has no traffic to interfere with.
        if not self.machine.config.smp and self.machine.n_pes > 1:
            charge *= self.network.non_smp_compute_interference
        end = start + charge
        self.pe_costs[pe].add("compute", charge - self._exec_eager)
        if msg.array in self._tracked_arrays:
            key = (msg.array, msg.index)
            self.chare_costs[key] = self.chare_costs.get(key, 0.0) + charge
        outbox = self._outbox
        self._exec_pe, self._exec_charge, self._outbox, self._exec_eager = prev
        # Departures are serialised after the execution.
        for (a, i, m, payload, nbytes) in outbox:
            out = Message(a, i, m, payload, nbytes, src_pe=pe)
            src_cost = self._route(pe, out, end)
            self.pe_costs[pe].add("comm", src_cost)
            end += src_cost
        self.pe_clock[pe] = end
        if obs is not None:
            obs.add_virtual_span(pe, float(start), float(end), f"{msg.array}.{msg.method}")
        self._events_processed += 1
        if self._sync_listeners:
            self.notify_sync("executed", pe=pe, method=msg.method, array=msg.array, time=end)

    def _comm_send(self, t: float, src_pe: int, dst_pe: int, msg: Message, costs) -> None:
        proc = self.machine.process_of(src_pe)
        start = max(t, self.comm_clock[proc])
        self.comm_clock[proc] = start + costs.src_comm
        arrive = start + costs.src_comm + costs.latency
        self._push(arrive, _COMM_RECV, (dst_pe, msg, costs))

    def _comm_recv(self, t: float, dst_pe: int, msg: Message, costs) -> None:
        proc = self.machine.process_of(dst_pe)
        start = max(t, self.comm_clock[proc])
        self.comm_clock[proc] = start + costs.dst_comm
        self._push(start + costs.dst_comm, _EXEC, (msg, costs.dst_cpu))

    # ------------------------------------------------------------------
    def run(self, max_events: int | None = None) -> float:
        """Process events until the heap drains; return final virtual time."""
        obs_span = observe.span("charm.runtime.run", pes=self.machine.n_pes)
        with obs_span:
            processed = 0
            while self._heap:
                t, _, kind, data = heapq.heappop(self._heap)
                if kind == _EXEC:
                    msg, dst_cpu = data
                    self._execute(t, msg, dst_cpu)
                elif kind == _COMM_SEND:
                    self._comm_send(t, *data)
                else:
                    self._comm_recv(t, *data)
                processed += 1
                if max_events is not None and processed >= max_events:
                    raise RuntimeError(
                        f"runtime exceeded {max_events} events — likely a protocol livelock"
                    )
            self.current_time = float(self.pe_clock.max()) if self.pe_clock.size else 0.0
            if self.validate:
                self._check_drained()
            obs_span.set(
                events=processed,
                virtual_time=self.current_time,
                messages=dict(self.msg_counter),
            )
            return self.current_time

    def _check_drained(self) -> None:
        """At quiescence no aggregation channel may still buffer records —
        a non-empty buffer after the heap drains is a lost message."""
        from repro.validate.invariants import InvariantViolation

        for name, agg in self.aggregators.items():
            pending = agg.pending()
            if pending:
                raise InvariantViolation(
                    f"aggregation channel {name!r} still buffers records on "
                    f"PEs {sorted(pending)} after the event heap drained — "
                    f"these messages were lost"
                )

    # ------------------------------------------------------------------
    def ensure_pe_agents(self) -> None:
        """Create the hidden per-PE agent array (idempotent)."""
        if "__pe__" not in self.arrays:
            self.create_array(
                "__pe__", lambda i: _PEAgent(), np.arange(self.machine.n_pes, dtype=np.int64)
            )

    def stats_summary(self) -> dict:
        """Aggregate telemetry for the benches."""
        return {
            "virtual_time": self.current_time,
            "messages": dict(self.msg_counter),
            "bytes": dict(self.bytes_counter),
            "events": self._events_processed,
            "compute_max": max((c.get("compute") for c in self.pe_costs), default=0.0),
            "compute_total": sum(c.get("compute") for c in self.pe_costs),
        }
