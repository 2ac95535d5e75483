"""Per-PE tracing of the simulated runtime through :mod:`repro.observe`.

While an observer is installed, ``RuntimeSimulator`` records every
entry-method execution as a virtual span ``(pe, start, end,
"array.method")``: ``start`` is when the PE picks the message up and
``end`` is the PE clock once the execution's departures are paid.  The
observer's views (utilisation, method profile, timeline) are the
Projections-style analysis of those spans.
"""

import math

import numpy as np
import pytest

from repro import observe
from repro.charm import Chare, MachineConfig, RuntimeSimulator
from repro.charm.machine import Machine
from repro.core import Scenario, TransmissionModel
from repro.core.parallel import Distribution, ParallelEpiSimdemics
from repro.partition import round_robin_partition


class Busy(Chare):
    def work(self, amount):
        self.charge(amount)

    def relay(self, payload):
        self.charge(1e-6)
        self.send("busy", payload, "work", 2e-6, 8)


def _runtime():
    rt = RuntimeSimulator(MachineConfig(n_nodes=2, cores_per_node=4, smp=False))
    rt.ensure_pe_agents()
    rt.create_array("busy", lambda i: Busy(), np.arange(8) % rt.machine.n_pes)
    return rt


def _observed(inject):
    """Run ``inject(rt)``'s messages under an observer."""
    rt = _runtime()
    inject(rt)
    with observe.observing() as obs:
        rt.run()
    return rt, obs


def _loaded(rt):
    for i in range(8):
        rt.inject("busy", i, "work", 1e-5 * (i + 1))


def _busy(obs):
    busy = np.zeros(obs.n_pes)
    for v in obs.virtual_spans:
        busy[v.pe] += v.duration
    return busy


def _parallel_sim(graph, mc, n_parts):
    """A three-day EpiSimdemics run with ``n_parts`` chares per array,
    placed round-robin on ``mc``'s PEs."""
    sc = Scenario(
        graph=graph, n_days=3, seed=5, initial_infections=5,
        transmission=TransmissionModel(2e-4),
    )
    part = round_robin_partition(graph, n_parts)
    return ParallelEpiSimdemics(sc, mc, Distribution.from_partition(part, Machine(mc)))


class TestCapture:
    def test_events_recorded(self):
        rt, obs = _observed(lambda rt: rt.inject("busy", 0, "work", 5e-6))
        (v,) = obs.virtual_spans
        assert v.name == "busy.work"
        assert v.duration >= 5e-6  # includes interference factor

    def test_relay_produces_two_events(self):
        rt, obs = _observed(lambda rt: rt.inject("busy", 0, "relay", 5))
        assert sorted(v.name for v in obs.virtual_spans) == ["busy.relay", "busy.work"]

    def test_span_covers_all_events(self):
        rt, obs = _observed(lambda rt: rt.inject("busy", 0, "relay", 5))
        spans = obs.virtual_spans
        makespan = max(v.end for v in spans) - min(v.start for v in spans)
        assert makespan >= max(v.duration for v in spans)
        assert max(v.end for v in spans) == rt.current_time

    def test_spans_follow_execution_order(self):
        rt = _runtime()
        executed = []
        rt.add_sync_listener(
            lambda event, info: executed.append(
                (info["pe"], f"{info['array']}.{info['method']}", info["time"])
            )
        )
        _loaded(rt)
        rt.inject("busy", 0, "relay", 5)
        with observe.observing() as obs:
            rt.run()
        assert [(v.pe, v.name, v.end) for v in obs.virtual_spans] == executed

    def test_two_pings_on_a_bare_runtime(self):
        class Ping(Chare):
            def ping(self, amount):
                self.charge(amount)

        rt = RuntimeSimulator(MachineConfig(n_nodes=1, cores_per_node=2, smp=False))
        rt.create_array("ping", lambda i: Ping(), np.array([0, 1]))
        for i in range(2):
            rt.inject("ping", i, "ping", 1e-6)
        with observe.observing() as obs:
            rt.run()
        assert sorted((v.pe, v.name) for v in obs.virtual_spans) == [
            (0, "ping.ping"), (1, "ping.ping"),
        ]


class TestAnalysis:
    def test_utilization_bounds(self):
        rt, obs = _observed(_loaded)
        util = observe.utilization(obs)
        assert util.shape == (rt.machine.n_pes,)
        assert np.all(util >= 0) and np.all(util <= 1.0 + 1e-9)

    def test_critical_pe_is_heaviest(self):
        # Element i runs 10(i + 1) us of work on PE i: the busiest PE,
        # the straggler to look at, is the one holding element 7.
        rt, obs = _observed(_loaded)
        assert int(np.argmax(observe.utilization(obs))) == 7

    def test_busy_time_is_compute_plus_comm(self):
        def inject(rt):
            _loaded(rt)
            for i in range(0, 8, 3):
                rt.inject("busy", i, "relay", (i + 5) % 8)

        rt, obs = _observed(inject)
        costs = [c.get("compute") + c.get("comm") for c in rt.pe_costs]
        for pe, busy in enumerate(_busy(obs)):
            assert math.isclose(busy, costs[pe], rel_tol=1e-9)

    def test_method_profile_totals(self):
        rt, obs = _observed(_loaded)
        calls, total = observe.method_profile(obs)["busy.work"]
        assert calls == 8
        assert math.isclose(total, sum(v.duration for v in obs.virtual_spans))

    def test_empty_trace_guards(self):
        obs = observe.Observer(epoch=0.0)
        obs.n_pes = 4
        assert observe.pe_timeline(obs) == "(empty trace)"
        assert observe.utilization(obs).tolist() == [0.0] * 4
        assert observe.method_profile(obs) == {}


class TestRendering:
    def test_timeline_shape(self):
        def inject(rt):
            for i in range(8):
                rt.inject("busy", i, "work", 1e-5)

        rt, obs = _observed(inject)
        lines = observe.pe_timeline(obs, width=40).splitlines()
        assert len(lines) == rt.machine.n_pes
        assert all(len(l) == len(lines[0]) for l in lines)

    def test_profile_table(self):
        rt, obs = _observed(lambda rt: rt.inject("busy", 0, "work", 1e-5))
        assert "busy.work" in observe.method_profile_table(obs)

    def test_tracing_full_parallel_simulation(self, tiny_graph):
        """End to end: trace a real EpiSimdemics run and find the phases."""
        mc = MachineConfig(n_nodes=2, cores_per_node=4, smp=True, processes_per_node=1)
        sim = _parallel_sim(tiny_graph, mc, Machine(mc).n_pes)
        with observe.observing() as obs:
            sim.run()
        prof = observe.method_profile(obs)
        # The phase-driving methods must appear in the profile.
        assert "__pe__.bcast" in prof
        assert prof["driver.start_day"][0] == 3

    def test_every_pe_gets_a_row(self, tiny_graph):
        # Three chares per array on a four-PE machine: PE 3 hosts no
        # PersonManager or LocationManager, yet keeps its timeline row.
        mc = MachineConfig(n_nodes=1, cores_per_node=4, smp=False)
        sim = _parallel_sim(tiny_graph, mc, 3)
        with observe.observing() as obs:
            sim.run()
        assert obs.n_pes == sim.runtime.machine.n_pes == 4
        assert {v.name for v in obs.virtual_spans if v.pe == 3} <= {
            "__pe__.bcast", "__pe__.reduce_partial", "__pe__.sync_ask",
            "__pe__.recv_batch", "__pe__.tram_batch",
        }
        assert len(observe.pe_timeline(obs).splitlines()) == 4

    def test_busy_time_on_forwarding_free_pes(self, tiny_graph):
        # A PE that forwards no broadcast (a reduction-tree leaf) is busy
        # for exactly its compute + comm cost.
        mc = MachineConfig(n_nodes=2, cores_per_node=4, smp=False)
        sim = _parallel_sim(tiny_graph, mc, Machine(mc).n_pes)
        with observe.observing() as obs:
            sim.run()
        rt = sim.runtime
        busy = _busy(obs)
        leaves = [pe for pe in range(rt.machine.n_pes) if not rt.tree.children(pe)]
        assert leaves
        for pe in leaves:
            c = rt.pe_costs[pe]
            assert math.isclose(busy[pe], c.get("compute") + c.get("comm"), rel_tol=1e-9)

    @pytest.mark.parametrize("smp", [False, True])
    def test_busy_time_is_compute_plus_comm_on_every_pe(self, tiny_graph, smp):
        # Broadcast-forwarding PEs too: an eager send's cost is booked
        # once, as comm, though it runs inside the forwarding entry.
        mc = MachineConfig(n_nodes=2, cores_per_node=4, smp=smp, processes_per_node=1)
        sim = _parallel_sim(tiny_graph, mc, Machine(mc).n_pes)
        with observe.observing() as obs:
            sim.run()
        rt = sim.runtime
        assert any(rt.tree.children(pe) for pe in range(rt.machine.n_pes))
        for pe, busy in enumerate(_busy(obs)):
            c = rt.pe_costs[pe]
            assert math.isclose(busy, c.get("compute") + c.get("comm"), rel_tol=1e-9)
