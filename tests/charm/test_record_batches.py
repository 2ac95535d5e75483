"""Columnar record batches: one ``send_many_via`` ≡ the ``send_via`` loop.

The batched send is *defined* as the scalar loop, so every modelled
quantity must come out ``==`` — not approximately: the wire messages,
their order and sizes (hence every clock), the channel telemetry, the
detector counters, the tracked chare costs, and the order in which each
target chare sees its payloads.  The one licence a batch takes is that
an entry method is invoked once per (flushed batch, target chare) with
an array instead of once per record; targets here charge and send
nothing from that entry, which is when the two are indistinguishable.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.charm import Chare, CompletionDetector, MachineConfig, RuntimeSimulator
from repro.charm.aggregation import MessageAggregator, RecordBatch
from repro.charm.tram import TramChannel

#: n_pes -> machine shape (5, 7, 12 give TRAM a ragged last mesh row)
MACHINES = {
    5: MachineConfig(n_nodes=5, cores_per_node=1, smp=False),
    7: MachineConfig(n_nodes=1, cores_per_node=8, smp=True, processes_per_node=1),
    9: MachineConfig(n_nodes=3, cores_per_node=4, smp=True, processes_per_node=1),
    12: MachineConfig(n_nodes=2, cores_per_node=8, smp=True, processes_per_node=2),
}
BUFFER_BYTES = (0, 16, 48, 256, 65536)


class Sender(Chare):
    """``warm`` leaves a residue of scalar sends in the PE's buffers;
    ``go`` continues from it, batched or as the reference loop."""

    def __init__(self, plan):
        self.warm_sends, self.warm_bytes, self.dests, self.payloads, self.bytes = plan

    def warm(self, _payload=None):
        det = self.runtime._detectors["phase"]
        for dst, value in self.warm_sends:
            det.produce()
            self.send_via("ch", "sink", dst, "recv", value, self.warm_bytes)

    def go(self, batched: bool):
        det = self.runtime._detectors["phase"]
        self.charge(1e-6)
        if batched:
            det.produce(self.dests.size)
            self.send_many_via("ch", "sink", self.dests, "recv", self.payloads, self.bytes)
        else:
            for dst, value in zip(self.dests.tolist(), self.payloads.tolist()):
                det.produce()
                self.send_via("ch", "sink", dst, "recv", value, self.bytes)
        self.runtime.flush_channel("ch", self.pe)
        det.producer_done()


class Sink(Chare):
    def __init__(self):
        self.got: list[int] = []

    def work(self, seconds):
        self.charge(seconds)

    def recv(self, values):
        values = np.atleast_1d(values)
        self.runtime._detectors["phase"].consume(values.size)
        self.got.extend(values.tolist())


class Done(Chare):
    closed_at = None

    def fin(self, _payload=None):
        self.closed_at = self.now()


def run_program(n_pes, tram, buffer_bytes, sender_pes, sink_pes, plans, batched):
    rt = RuntimeSimulator(MACHINES[n_pes])
    rt.ensure_pe_agents()
    if tram:
        rt.create_tram_channel("ch", buffer_bytes)
    else:
        rt.create_channel("ch", buffer_bytes)
    rt.create_array("send", lambda i: Sender(plans[i]), np.array(sender_pes))
    sinks = rt.create_array("sink", lambda i: Sink(), np.array(sink_pes))
    done = rt.create_array("done", lambda i: Done(), np.zeros(1, dtype=np.int64))
    for name in ("send", "sink", "__pe__"):
        rt.enable_chare_cost_tracking(name)
    det = CompletionDetector(rt, "phase")
    det.begin_phase(len(plans), ("done", 0, "fin"))
    # Same timestamp, so FIFO order: sinks accrue a tracked cost (some
    # far below one dispatch charge, so that a delivery which perturbed
    # it by a rounding step per record would show), every warm-up runs,
    # then every go — a go therefore continues from residue that other
    # senders on its PE left behind.
    for i in range(len(sink_pes)):
        rt.inject("sink", i, "work", (0.1 if i % 2 else 1e-9) * (1 + i))
    for i in range(len(plans)):
        rt.inject("send", i, "warm")
    for i in range(len(plans)):
        rt.inject("send", i, "go", batched)
    rt.run(max_events=1_000_000)
    chan = rt.aggregators["ch"]
    return {
        "got": [sinks.element(i).got for i in range(len(sink_pes))],
        "stats": rt.stats_summary(),
        "pe_clock": rt.pe_clock.tolist(),
        "comm_clock": rt.comm_clock.tolist(),
        "telemetry": (chan.records_in, chan.batches_out, getattr(chan, "forwards", None)),
        "produced": det.produced.tolist(),
        "consumed": det.consumed.tolist(),
        "waves": det.waves_run,
        "closed_at": done.element(0).closed_at,
        "chare_costs": rt.chare_costs,
        "pending": chan.pending(),
    }


@st.composite
def programs(draw):
    n_pes = draw(st.sampled_from(sorted(MACHINES)))
    pes = st.integers(0, n_pes - 1)
    sink_pes = draw(st.lists(pes, min_size=1, max_size=8))
    sender_pes = draw(st.lists(pes, min_size=1, max_size=5))
    sinks = st.integers(0, len(sink_pes) - 1)
    plans, serial = [], 0
    for _ in sender_pes:
        warm = draw(st.lists(sinks, max_size=5))
        dests = draw(st.lists(sinks, max_size=60))
        n = len(warm) + len(dests)
        values = list(range(serial, serial + n))
        serial += n
        plans.append((
            list(zip(warm, values)),
            draw(st.sampled_from((8, 16, 24))),
            np.array(dests, dtype=np.int64),
            np.array(values[len(warm):], dtype=np.int64),
            draw(st.sampled_from((8, 16))),
        ))
    return dict(
        n_pes=n_pes,
        tram=draw(st.booleans()),
        buffer_bytes=draw(st.sampled_from(BUFFER_BYTES)),
        sender_pes=sender_pes,
        sink_pes=sink_pes,
        plans=plans,
    )


@given(programs())
@settings(deadline=None, max_examples=150)
def test_send_many_via_equals_the_send_via_loop(program):
    batched = run_program(**program, batched=True)
    loop = run_program(**program, batched=False)
    for key in loop:
        assert batched[key] == loop[key], key
    assert loop["pending"] == set()
    sent = sum(len(p[0]) + p[2].size for p in program["plans"])
    assert sum(len(g) for g in loop["got"]) == sum(loop["consumed"]) == sent


@pytest.mark.parametrize("tram", [False, True])
@pytest.mark.parametrize("buffer_bytes", BUFFER_BYTES)
@pytest.mark.parametrize("n_pes", sorted(MACHINES))
def test_long_batches(n_pes, buffer_bytes, tram):
    """Hundreds of records per flush: long enough that a dispatch charge
    of ``n * x`` instead of the running sum would show in the clocks."""
    rng = np.random.default_rng(n_pes)
    sink_pes = rng.integers(0, n_pes, 2 * n_pes).tolist()
    plans = [
        (
            [(int(d), -1 - j) for j, d in enumerate(rng.integers(0, len(sink_pes), 3))],
            24,
            rng.integers(0, len(sink_pes), 700),
            np.arange(700) + 1000 * i,
            16,
        )
        for i in range(4)
    ]
    program = dict(
        n_pes=n_pes, tram=tram, buffer_bytes=buffer_bytes,
        sender_pes=[0, 0, 1, n_pes - 1], sink_pes=sink_pes, plans=plans,
    )
    assert run_program(**program, batched=True) == run_program(**program, batched=False)


class TestAppendMany:
    @staticmethod
    def _batch(n, nbytes=16):
        return RecordBatch("a", "m", np.zeros(n, dtype=np.int64), np.arange(n), nbytes)

    def test_flushes_come_back_in_scalar_emission_order(self):
        # 48-byte buffers take three 16-byte rows.  Buffer 2 fills at
        # send position 4, buffer 1 at position 5: 2 is emitted first
        # although 1 sorts first.
        agg = MessageAggregator("t", buffer_bytes=48)
        dst = np.array([1, 2, 2, 1, 2, 1, 1])
        flushed = agg.append_many(0, dst, self._batch(7))
        assert [(pe, [c.payloads.tolist() for c in chunks]) for pe, chunks in flushed] == [
            (2, [[1, 2, 4]]),
            (1, [[0, 3, 5]]),
        ]
        assert [(pe, chunks[0].payloads.tolist()) for pe, chunks in agg.flush_source(0)] == [
            (1, [6])
        ]
        assert (agg.records_in, agg.batches_out) == (7, 3)

    def test_continues_from_a_residue_of_another_width(self):
        agg = MessageAggregator("t", buffer_bytes=48)
        assert agg.append_many(0, np.ones(1, dtype=np.int64), self._batch(1, nbytes=24)) == []
        (pe, chunks), = agg.append_many(0, np.ones(4, dtype=np.int64), self._batch(4))
        # 24 held + 2 x 16 >= 48: the residue leaves with the first two
        # rows; the other two start a fresh buffer.
        assert pe == 1 and [len(c) for c in chunks] == [1, 2]
        left = agg._buffers[(0, 1)]
        assert left.bytes == 32 and [c.payloads.tolist() for c in left.chunks] == [[2, 3]]

    def test_empty_input_touches_nothing(self):
        for chan in (MessageAggregator("t", 64), TramChannel("t", 9, 64)):
            assert chan.append_many(0, np.empty(0, dtype=np.int64), self._batch(0)) == []
            assert chan.pending() == set() and chan.records_in == chan.batches_out == 0

    @pytest.mark.parametrize("chan", [MessageAggregator("t", 0), TramChannel("t", 9, 0)])
    def test_unbuffered_channels_emit_one_batch_per_record(self, chan):
        flushed = chan.append_many(0, np.array([3, 1, 3, 2]), self._batch(4))
        assert [chunks[0].payloads.tolist() for _, chunks in flushed] == [[0], [1], [2], [3]]
        assert chan.batches_out == 4 and chan.pending() == set()

    def test_zero_byte_records_never_fill_a_buffer(self):
        agg = MessageAggregator("t", buffer_bytes=64)
        assert agg.append_many(0, np.ones(50, dtype=np.int64), self._batch(50, nbytes=0)) == []
        assert len(agg.flush_source(0)[0][1][0]) == 50

    @pytest.mark.parametrize("n_pes", [1, 5, 7, 12, 16])
    def test_next_hops_is_next_hop_per_row(self, n_pes):
        chan = TramChannel("t", n_pes)
        dst = np.arange(n_pes)
        for at in range(n_pes):
            assert chan.next_hops(at, dst).tolist() == [chan.next_hop(at, d) for d in dst]


class TestRecordBatch:
    def test_by_target_keeps_send_order_within_each_target(self):
        batch = RecordBatch("a", "m", np.array([4, 2, 4, 2, 9]), np.arange(5) * 10, 8)
        assert [(i, p.tolist()) for i, p in batch.by_target()] == [
            (2, [10, 30]), (4, [0, 20]), (9, [40]),
        ]

    def test_payloads_may_be_rows(self):
        batch = RecordBatch("a", "m", np.array([1, 0, 1]), np.arange(6).reshape(3, 2), 8)
        assert [(i, p.tolist()) for i, p in batch.by_target()] == [
            (0, [[2, 3]]), (1, [[0, 1], [4, 5]]),
        ]

    def test_empty_batch_has_no_targets(self):
        assert list(TestAppendMany._batch(0).by_target()) == []
