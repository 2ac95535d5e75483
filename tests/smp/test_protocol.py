"""The struct-packed day-barrier wire protocol.

These are the regression teeth behind the SMP slowdown fix: the
per-day pipe traffic must stay *flat-layout bytes whose size is an
explicit function of the counts* (no pickled tuples, no pickled numpy
arrays), and no infect record crosses a pipe at all.  A real
two-worker run is held to the exact byte budget.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro import workers
from repro.core import Scenario, TransmissionModel
from repro.smp import SmpSimulator, protocol
from repro.smp.backoff import BASE_SLEEP, MAX_SLEEP, YIELD_LAPS, Backoff
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


def make_report(n_infected=5, stats=False, n_pairs=2):
    pairs = (
        (np.arange(n_pairs, dtype=np.int64) * 7, np.arange(n_pairs, dtype=np.int64) + 2)
        if stats
        else None
    )
    return protocol.DayReport(
        day=3, transitions=11, visits_made=200, infected=n_infected,
        clocks=(1.0, 2.0, 3.5, 4.25),
        stats_events=pairs, stats_interactions=pairs,
    )


class TestReports:
    @pytest.mark.parametrize("n_pairs", [0, 1, 13])
    @pytest.mark.parametrize("stats", [False, True])
    def test_roundtrip(self, n_pairs, stats):
        r = make_report(stats=stats, n_pairs=n_pairs)
        buf = protocol.encode_report(r)
        out = protocol.decode_report(buf)
        assert (out.day, out.transitions, out.visits_made, out.infected, out.clocks) == (
            r.day, r.transitions, r.visits_made, r.infected, r.clocks)
        if stats and n_pairs:
            for got, want in ((out.stats_events, r.stats_events),
                              (out.stats_interactions, r.stats_interactions)):
                np.testing.assert_array_equal(got[0], want[0])
                np.testing.assert_array_equal(got[1], want[1])
        else:
            assert out.stats_events is None and out.stats_interactions is None

    @pytest.mark.parametrize("n_infected,stats", [(0, False), (9, False), (4, True)])
    def test_size_is_exactly_the_budget_formula(self, n_infected, stats):
        # the infected count is a header word: records never ride along
        r = make_report(n_infected, stats)
        n_pairs = 2 if stats else 0
        assert len(protocol.encode_report(r)) == protocol.report_nbytes(n_pairs, n_pairs)

    def test_payload_contains_no_pickle(self):
        """The uplink is raw little-endian words — if anyone reintroduces
        ``conn.send`` of arrays, the size formula and these markers break."""
        buf = protocol.encode_report(make_report(50, stats=True, n_pairs=50))
        for marker in (
            pickle.dumps(np.int64(0))[:2],  # pickle protocol header
            b"numpy",                       # ndarray reconstructor path
            b"ndarray",
        ):
            assert marker not in buf

    def test_decode_is_zero_copy(self):
        buf = protocol.encode_report(make_report(8, stats=True))
        out = protocol.decode_report(buf)
        assert out.stats_events[0].base is not None  # a view of the buffer, not a copy

    def test_opcode_peek_and_error_roundtrip(self):
        # A worker failure travels in the shared error frame of repro.workers.
        err = workers.encode_error(1, "ValueError('x')", "trace\nback")
        assert workers.opcode(err) == workers.OP_ERROR
        assert workers.decode_error(err) == (1, "ValueError('x')", "trace\nback")
        assert workers.opcode(protocol.encode_report(make_report())) \
            == protocol.OP_DAY_DONE


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
        exactly commands + headers, however many infections the days had."""
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
        )
        assert out.wire_bytes == expected
        assert n_events > 0  # the days did infect: records took no pipe
