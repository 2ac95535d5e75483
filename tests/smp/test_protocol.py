"""The struct-packed day-barrier wire protocol and zero-copy routing.

These are the regression teeth behind the SMP slowdown fix: the
per-day pipe traffic must stay *flat-layout bytes whose size is an
explicit function of the counts* (no pickled tuples, no pickled numpy
arrays), and visit/event routing must hand the mailboxes contiguous
slices of one destination-sorted array (no per-destination copies).
A real two-worker run is held to the exact byte budget.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core import Scenario, TransmissionModel
from repro.smp import SmpSimulator, protocol
from repro.smp.backoff import BASE_SLEEP, MAX_SLEEP, YIELD_LAPS, Backoff
from repro.smp.ring import DEFAULT_BURST_BYTES, Mailbox, RingGrid, route_records
from repro.synthpop import PopulationConfig, generate_population


class TestCommands:
    def test_day_roundtrip_is_fixed_size(self):
        buf = protocol.encode_day(17, 0.125, 0.75)
        assert len(buf) == protocol.COMMAND_NBYTES
        assert protocol.decode_command(buf) == (protocol.OP_DAY, 17, 0.125, 0.75)

    def test_stop_roundtrip(self):
        buf = protocol.encode_stop()
        assert len(buf) == protocol.COMMAND_NBYTES
        assert protocol.decode_command(buf)[0] == protocol.OP_STOP


def make_report(n_events=5, stats=False):
    events = np.arange(n_events * 3, dtype=np.int64).reshape(n_events, 3)
    pairs = (
        (np.array([7, 9], dtype=np.int64), np.array([2, 4], dtype=np.int64))
        if stats
        else None
    )
    return protocol.DayReport(
        day=3, transitions=11, visits_made=200, infected=n_events,
        backpressure=1, clocks=(1.0, 2.0, 3.5, 4.25), events=events,
        stats_events=pairs, stats_interactions=pairs,
    )


class TestReports:
    @pytest.mark.parametrize("n_events", [0, 1, 13])
    @pytest.mark.parametrize("stats", [False, True])
    def test_roundtrip(self, n_events, stats):
        r = make_report(n_events, stats)
        buf = protocol.encode_report(r)
        out = protocol.decode_report(buf)
        assert (out.day, out.transitions, out.visits_made, out.infected,
                out.backpressure, out.clocks) == (
                   r.day, r.transitions, r.visits_made, r.infected,
                   r.backpressure, r.clocks)
        np.testing.assert_array_equal(out.events, r.events)
        if stats:
            for got, want in ((out.stats_events, r.stats_events),
                              (out.stats_interactions, r.stats_interactions)):
                np.testing.assert_array_equal(got[0], want[0])
                np.testing.assert_array_equal(got[1], want[1])
        else:
            assert out.stats_events is None and out.stats_interactions is None

    @pytest.mark.parametrize("n_events,stats", [(0, False), (9, False), (4, True)])
    def test_size_is_exactly_the_budget_formula(self, n_events, stats):
        r = make_report(n_events, stats)
        n_pairs = 2 if stats else 0
        assert len(protocol.encode_report(r)) == protocol.report_nbytes(
            n_events, n_pairs, n_pairs
        )

    def test_payload_contains_no_pickle(self):
        """The uplink is raw little-endian words — if anyone reintroduces
        ``conn.send`` of arrays, the size formula and these markers break."""
        buf = protocol.encode_report(make_report(50, stats=True))
        for marker in (
            pickle.dumps(np.int64(0))[:2],  # pickle protocol header
            b"numpy",                       # ndarray reconstructor path
            b"ndarray",
        ):
            assert marker not in buf

    def test_decode_is_zero_copy(self):
        buf = protocol.encode_report(make_report(8))
        out = protocol.decode_report(buf)
        assert out.events.base is not None  # a view of the buffer, not a copy

    def test_opcode_peek_and_error_roundtrip(self):
        err = protocol.encode_error("ValueError('x')", "trace\nback")
        assert protocol.opcode(err) == protocol.OP_ERROR
        assert protocol.decode_error(err) == ("ValueError('x')", "trace\nback")
        assert protocol.opcode(protocol.encode_report(make_report())) \
            == protocol.OP_DAY_DONE


class TestRouteRecords:
    def test_parts_are_views_of_one_sorted_array(self):
        values = np.arange(100, dtype=np.int64)
        dests = values % 3
        routed, parts = route_records(values, dests, 3)
        assert len(parts) == 3
        for dst, part in enumerate(parts):
            assert np.shares_memory(part, routed)  # zero-copy contract
            assert part.tolist() == sorted(values[dests == dst].tolist())

    def test_record_rows_stay_whole(self):
        ev = np.arange(30, dtype=np.int64).reshape(10, 3)
        dests = np.array([0, 1] * 5)
        routed, parts = route_records(ev, dests, 2)
        assert np.shares_memory(parts[0], routed)
        got = {tuple(r) for p in parts for r in p.reshape(-1, 3)}
        assert got == {tuple(r) for r in ev}

    def test_empty_destination_gets_empty_view(self):
        _, parts = route_records(np.array([1, 2], dtype=np.int64),
                                 np.array([0, 0]), 3)
        assert parts[1].size == 0 and parts[2].size == 0


class TestBurstSizing:
    def make_grid(self, n=2, capacity=1024):
        return RingGrid(
            np.zeros(RingGrid.shape(n, capacity), dtype=np.int64), capacity
        )

    def test_default_burst_is_bytes_not_words(self):
        mb = Mailbox(self.make_grid(), 0)
        assert mb.burst_bytes == DEFAULT_BURST_BYTES
        assert mb.batch == DEFAULT_BURST_BYTES // 8

    def test_wide_records_get_fewer_per_burst(self):
        mb = Mailbox(self.make_grid(), 0, burst_bytes=2048, record=3)
        assert mb.batch == 255          # floor(2048/24) records * 3 words
        assert mb.batch % 3 == 0

    def test_legacy_batch_kwarg_still_words(self):
        mb = Mailbox(self.make_grid(), 0, batch=64)
        assert mb.batch == 64 and mb.burst_bytes == 512

    def test_batch_and_burst_bytes_conflict(self):
        with pytest.raises(ValueError, match="not both"):
            Mailbox(self.make_grid(), 0, batch=8, burst_bytes=64)


class TestBackoff:
    def test_yields_then_doubles_to_cap(self):
        b = Backoff()
        delays = []
        for _ in range(12):
            delays.append(b.next_delay())
            b.pause()
        assert delays[:YIELD_LAPS] == [0.0] * YIELD_LAPS
        sleeps = delays[YIELD_LAPS:]
        assert sleeps[0] == BASE_SLEEP
        assert all(b == min(a * 2, MAX_SLEEP)
                   for a, b in zip(sleeps, sleeps[1:]))
        assert max(sleeps) == MAX_SLEEP

    def test_reset_restarts_the_ladder(self):
        b = Backoff()
        for _ in range(8):
            b.pause()
        b.reset()
        assert b.next_delay() == 0.0


class TestWireBudget:
    def test_two_worker_run_matches_exact_byte_budget(self):
        """End-to-end: the day barrier of a real forked run carries
        exactly commands + headers + 24 bytes per infection event."""
        graph = generate_population(
            PopulationConfig(n_persons=300), 21, name="wire-budget"
        )
        n_days, n_workers = 5, 2
        out = SmpSimulator(
            Scenario(
                graph=graph, n_days=n_days, seed=2, initial_infections=8,
                transmission=TransmissionModel(2e-4),
            ),
            n_workers=n_workers,
        ).run()
        n_events = sum(len(evs) for evs in out.result.infection_log.values())
        expected = n_days * n_workers * (
            protocol.COMMAND_NBYTES + protocol.REPORT_HEADER_NBYTES
        ) + 24 * n_events
        assert out.wire_bytes == expected
        assert n_events > 0  # the budget must be exercised, not vacuous
