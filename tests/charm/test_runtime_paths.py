"""The runtime's message paths against the scalar forms they replaced.

Virtual time is the product, so each vectorised or memoised path must
give the same floats and the same order as the per-record Python it
stands for, not approximately:

* ``_PEAgent._dispatch`` charges ``DISPATCH_OVERHEAD`` per record as
  one ``np.add.accumulate`` — the running sum ``charge += x`` per record;
* ``RecordBatch.by_target`` skips its stable ``argsort`` when the
  indices are already non-decreasing — the argsort grouping;
* ``MessageAggregator.append_many`` sorts a narrow unsigned copy of the
  PE ids — the order, hence the flushes, of the scalar ``append`` loop;
* ``RuntimeSimulator._route`` prices a message from a memo keyed by
  ``(src PE, dst PE, wire bytes)`` — ``network.message_costs`` and the
  tier rule, recomputed per message.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.charm import MachineConfig, RuntimeSimulator
from repro.charm.aggregation import AggregationRecord, MessageAggregator, RecordBatch
from repro.charm.chare import Chare
from repro.charm.messages import Message
from repro.charm.scheduler import DISPATCH_OVERHEAD, _PEAgent


def _batch(indices) -> RecordBatch:
    """Record ``i`` goes to ``indices[i]`` and carries ``10 * i``."""
    indices = np.asarray(indices, dtype=np.int64)
    return RecordBatch("sink", "recv", indices, np.arange(indices.size) * 10, 16)


# -- dispatch charge --------------------------------------------------------
@pytest.mark.parametrize("n", [0, 1, 2, 100_000])
@settings(max_examples=25, deadline=None)
@given(start=st.floats(min_value=0.0, max_value=10.0, allow_nan=False, allow_infinity=False))
def test_accumulated_dispatch_charge_is_the_running_sum(n, start):
    agent = _PEAgent()
    agent.runtime = SimpleNamespace(_exec_charge=start)
    agent._dispatch(_batch(np.zeros(n)))
    expected = start
    for _ in range(n):
        expected += DISPATCH_OVERHEAD
    assert agent.runtime._exec_charge == expected
    assert type(agent.runtime._exec_charge) is float


# -- by_target ----------------------------------------------------------------
def _by_target_with_argsort(batch: RecordBatch):
    """The grouping before the no-sort path: always one stable argsort."""
    order = np.argsort(batch.indices, kind="stable")
    keys = batch.indices[order]
    cuts = (np.flatnonzero(keys[1:] != keys[:-1]) + 1).tolist()
    for lo, hi in zip([0] + cuts, cuts + [keys.size]):
        if hi > lo:
            yield int(keys[lo]), batch.payloads[order[lo:hi]]


def _groups(pairs):
    return [(index, payloads.tolist()) for index, payloads in pairs]


@pytest.mark.parametrize(
    "indices",
    [
        [],
        [4],
        [7, 7, 7, 7],  # one target: the visit channel's every chunk
        [0, 0, 1, 3, 3, 3, 9],  # sorted, several targets
        [3, 1, 3, 0, 1, 3, 2],  # unsorted
        [5, 4, 3, 2, 1, 0],
    ],
)
def test_by_target_no_sort_path_equals_the_argsort_path(indices):
    batch = _batch(indices)
    assert _groups(batch.by_target()) == _groups(_by_target_with_argsort(batch))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 6), max_size=40), st.booleans())
def test_by_target_equals_the_argsort_path(indices, presorted):
    batch = _batch(sorted(indices) if presorted else indices)
    assert _groups(batch.by_target()) == _groups(_by_target_with_argsort(batch))


# -- append_many's narrow sort ------------------------------------------------
@pytest.mark.parametrize("top", [200, 40_000, 70_000, 2**40])
@pytest.mark.parametrize("buffer_bytes", [0, 48, 65536])
def test_narrow_pe_sort_keeps_the_scalar_emission_order(top, buffer_bytes):
    """PE ids up to 2**8, 2**16, 2**32 and beyond: the narrow copy's
    uint8 / uint16 / uint32 / uint64 sort orders rows as int64 does."""
    rng = np.random.default_rng(top)
    dst = np.concatenate([rng.integers(0, top, 60), rng.integers(0, 3, 60)])
    rng.shuffle(dst)
    batch = _batch(np.arange(dst.size))
    many, loop = MessageAggregator("m", buffer_bytes), MessageAggregator("s", buffer_bytes)
    got = many.append_many(0, dst, batch) + many.flush(0)
    want = []
    for i, pe in enumerate(dst.tolist()):
        rec = AggregationRecord("sink", i, "recv", int(batch.payloads[i]), 16)
        out = loop.append(0, pe, rec)
        if out is not None:
            want.append((pe, out))
    want += loop.flush(0)

    def rows(flushes):
        return [
            (pe, [r for c in chunks for r in c.indices.tolist()]) for pe, chunks in flushes
        ]

    assert rows(got) == rows(want)


# -- memoised route -----------------------------------------------------------
class _Sink(Chare):
    pass


MACHINES = [
    MachineConfig(n_nodes=2, cores_per_node=4, smp=True, processes_per_node=1),
    MachineConfig(n_nodes=2, cores_per_node=8, smp=True, processes_per_node=2),
    MachineConfig(n_nodes=3, cores_per_node=2, smp=False),
]


def _tier(machine, src, dst) -> str:
    if machine.same_process(src, dst):
        return "intra_process"
    return "intra_node" if machine.same_node(src, dst) else "inter_node"


@pytest.mark.parametrize("config", MACHINES, ids=lambda c: f"{c.n_nodes}x{c.cores_per_node}-smp{c.smp}")
def test_memoised_route_equals_the_network_model(config):
    """Every PE pair (the self-send included), two message sizes, each
    routed twice: the second send reads the memo, and both must price,
    count and schedule as ``network.message_costs`` and the tier rule."""
    rt = RuntimeSimulator(config)
    n = rt.machine.n_pes
    rt.create_array("sink", lambda i: _Sink(), np.arange(n, dtype=np.int64))
    sent = 0
    for src in range(n):
        for dst in range(n):
            for payload_bytes in (8, 4096):
                msg = Message("sink", dst, "recv", None, payload_bytes)
                nbytes = msg.wire_bytes()
                costs = rt.network.message_costs(rt.machine, src, dst, nbytes)
                tier = _tier(rt.machine, src, dst)
                crosses = not rt.machine.same_process(src, dst)
                for _ in range(2):
                    before = rt.msg_counter[tier], rt.bytes_counter[tier]
                    rt._heap = []
                    assert rt._route(src, msg, 1.0) == costs.src_cpu
                    sent += 1
                    assert (rt.msg_counter[tier], rt.bytes_counter[tier]) == (
                        before[0] + 1, before[1] + nbytes
                    )
                    ((t, _, kind, data),) = rt._heap
                    if config.smp and crosses:
                        assert (t, kind, data) == (1.0 + costs.src_cpu, 1, (src, dst, msg, costs))
                    else:
                        assert t == 1.0 + costs.src_cpu + costs.latency
                        assert (kind, data) == (0, (msg, costs.dst_cpu))
                assert rt._routes[(src, dst, nbytes)] == (costs, tier, crosses)
    assert sum(rt.msg_counter.values()) == sent == 4 * n * n
    assert len(rt._routes) == 2 * n * n
