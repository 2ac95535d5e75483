"""Model-component semantics, unit-level and end-to-end.

Unit tests drive single hooks through a hand-built DayContext; the
end-to-end tests run whole scenarios on the sequential simulator and
assert the component's observable contract (ward occupancy bound,
quarantine keeps people home, vaccinated persons wane back).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.disease import FOREVER, UNTREATED, VACCINATED, sir_model
from repro.core.interventions import DayContext
from repro.core.simulator import SequentialSimulator
from repro.scenarios import (
    DemographicTurnover,
    HospitalCapacity,
    TestTraceQuarantine,
    VariantAssignment,
    WaningVaccination,
    build_scenario,
    hospital_model,
    two_variant_model,
    waning_model,
)
from repro.spec import PopulationSpec
from repro.util.rng import RngFactory


@pytest.fixture(scope="module")
def graph():
    return PopulationSpec(n_persons=250, seed=0, name="components").build()


def make_ctx(graph, disease, health_state, day=0, days_remaining=None,
             treatment=None):
    return DayContext(
        day=day,
        graph=graph,
        disease=disease,
        health_state=health_state,
        treatment=(treatment if treatment is not None
                   else np.full(graph.n_persons, UNTREATED, dtype=np.int64)),
        prevalence=0.0,
        cumulative_attack=0.0,
        rng_factory=RngFactory(7),
        days_remaining=(days_remaining if days_remaining is not None
                        else np.full(graph.n_persons, FOREVER, dtype=np.int64)),
    )


class TestHospitalCapacityUnit:
    def test_overflow_moves_excess_keeping_timers(self, graph):
        d = hospital_model()
        state = np.full(graph.n_persons, d.susceptible_index, dtype=np.int64)
        ward = np.array([3, 10, 25, 40, 77, 90, 120, 200])
        state[ward] = d.index["H"]
        remaining = np.full(graph.n_persons, FOREVER, dtype=np.int64)
        remaining[ward] = 5
        ctx = make_ctx(graph, d, state, days_remaining=remaining)
        HospitalCapacity(beds=5).post_apply(ctx)
        assert (state == d.index["H"]).sum() == 5
        moved = np.flatnonzero(state == d.index["H_over"])
        # Deterministic rule: the highest person ids overflow.
        assert moved.tolist() == [90, 120, 200]
        assert (remaining[moved] == 5).all()

    def test_no_op_within_capacity(self, graph):
        d = hospital_model()
        state = np.full(graph.n_persons, d.susceptible_index, dtype=np.int64)
        state[:3] = d.index["H"]
        HospitalCapacity(beds=5).post_apply(make_ctx(graph, d, state))
        assert (state == d.index["H_over"]).sum() == 0


class TestWaningVaccinationUnit:
    @pytest.mark.parametrize("wane_hi", [8, 1_500_000_000])
    def test_campaign_day_is_one_batched_draw(self, graph, monkeypatch, wane_hi):
        """Each chosen person's dwell is still the first draw of stream
        (SCENARIO, day, p, _SALT_DWELL) — the per-person loop it
        replaced, kept here as the reference — but no ``rng.stream`` is
        built on campaign day.  The wide span makes ~30% of rows Lemire
        rejections, which go to the live-Generator fallback."""
        d = waning_model(wane_lo=4, wane_hi=wane_hi)
        state = np.full(graph.n_persons, d.susceptible_index, dtype=np.int64)
        state[::7] = d.index["R"]
        remaining = np.full(graph.n_persons, FOREVER, dtype=np.int64)
        ctx = make_ctx(graph, d, state, day=3, days_remaining=remaining)
        reference = ctx.rng_factory
        calls = []
        monkeypatch.setattr(
            RngFactory, "stream", lambda self, *keys: calls.append(keys)
        )
        WaningVaccination(coverage=0.5, day=3).post_apply(ctx)
        monkeypatch.undo()
        assert calls == []
        chosen = np.flatnonzero(state == d.index["V"])
        assert 0 < chosen.size < graph.n_persons
        dwell = d.states[d.index["V"]].dwell
        expected = [
            int(dwell.sample(reference.stream(RngFactory.SCENARIO, 3, int(p),
                                              WaningVaccination._SALT_DWELL), 1)[0])
            for p in chosen
        ]
        assert remaining[chosen].tolist() == expected
        assert (remaining[state != d.index["V"]] == FOREVER).all()


class TestDemographicTurnoverUnit:
    def test_rate_one_rebirths_every_terminal_person(self, graph):
        d = sir_model()
        state = np.full(graph.n_persons, d.index["R"], dtype=np.int64)
        state[:10] = d.index["I"]
        remaining = np.zeros(graph.n_persons, dtype=np.int64)
        treatment = np.full(graph.n_persons, VACCINATED, dtype=np.int64)
        ctx = make_ctx(graph, d, state, days_remaining=remaining,
                       treatment=treatment)
        DemographicTurnover(rate=1.0).post_apply(ctx)
        reborn = np.flatnonzero(state == d.susceptible_index)
        assert reborn.size == graph.n_persons - 10
        assert (remaining[reborn] == FOREVER).all()
        assert (treatment[reborn] == UNTREATED).all()
        # Infectious persons are never recycled.
        assert (state[:10] == d.index["I"]).all()

    def test_declares_reinfection(self):
        assert DemographicTurnover(rate=0.1).reinfection_possible(sir_model())


class TestVariantAssignmentUnit:
    def test_routes_all_to_dominant_variant(self, graph):
        d = two_variant_model()
        state = np.full(graph.n_persons, d.susceptible_index, dtype=np.int64)
        state[:5] = d.index["E_pick"]
        state[50:55] = d.index["I_A"]  # only variant A circulates
        VariantAssignment(bias=0.5).update_treatments(make_ctx(graph, d, state))
        assert (state[:5] == d.index["E_A"]).all()

    def test_bias_breaks_the_tie_when_nothing_circulates(self, graph):
        d = two_variant_model()
        state = np.full(graph.n_persons, d.susceptible_index, dtype=np.int64)
        state[:40] = d.index["E_pick"]
        VariantAssignment(bias=1.0).update_treatments(make_ctx(graph, d, state))
        assert (state[:40] == d.index["E_A"]).all()
        state[:40] = d.index["E_pick"]
        VariantAssignment(bias=0.0).update_treatments(
            make_ctx(graph, d, state, day=1)
        )
        assert (state[:40] == d.index["E_B"]).all()


class TestTraceQuarantineUnit:
    def test_filter_drops_only_non_home_visits(self, graph):
        c = TestTraceQuarantine()
        d = sir_model()
        state = np.full(graph.n_persons, d.susceptible_index, dtype=np.int64)
        person = int(graph.visit_person[0])
        c._ensure(graph.n_persons)
        c._quarantined_until[person] = 10
        ctx = make_ctx(graph, d, state, day=3)
        keep = np.ones(graph.n_visits, dtype=bool)
        c.filter_visits(ctx, keep)
        mine = graph.visit_person == person
        non_home = graph.visit_location != graph.person_home[graph.visit_person]
        assert not keep[mine & non_home].any()
        assert keep[mine & ~non_home].all()
        assert keep[~mine].all()

    def test_wire_roundtrip_reproduces_the_mask(self, graph):
        c = TestTraceQuarantine()
        d = sir_model()
        state = np.full(graph.n_persons, d.susceptible_index, dtype=np.int64)
        c._ensure(graph.n_persons)
        c._quarantined_until[[4, 9, 40]] = [8, 2, 15]
        remote = TestTraceQuarantine()
        remote.load_wire_state(c.wire_state())
        ctx = make_ctx(graph, d, state, day=5)
        keep_central = np.ones(graph.n_visits, dtype=bool)
        keep_remote = np.ones(graph.n_visits, dtype=bool)
        c.filter_visits(ctx, keep_central)
        remote.filter_visits(ctx, keep_remote)
        # Person 9's quarantine expired (until=2 < day=5) on both sides.
        assert np.array_equal(keep_central, keep_remote)

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="detection"):
            TestTraceQuarantine(detection=1.5)
        with pytest.raises(ValueError, match="quarantine_days"):
            TestTraceQuarantine(quarantine_days=0)


class TestEndToEnd:
    def test_ward_occupancy_never_exceeds_beds(self, graph):
        beds = 2
        sc = build_scenario(
            "hospital-capacity", graph, n_days=10, seed=0,
            transmissibility=4e-4, params={"beds": beds, "hospitalization": 0.8},
        )
        sim = SequentialSimulator(sc)
        h = sc.disease.index["H"]
        hit_capacity = False
        for _ in range(sc.n_days):
            sim.step_day()
            ward = int((sim.health_state == h).sum())
            assert ward <= beds
            hit_capacity = hit_capacity or ward == beds
        assert hit_capacity, "epidemic never stressed the ward"
        assert (sim.health_state == sc.disease.index["H_over"]).sum() > 0

    def test_vaccinated_persons_wane_back_untreated(self, graph):
        sc = build_scenario(
            "waning-vaccination", graph, n_days=12, seed=0,
            initial_infections=0, transmissibility=0.0,
            params={"coverage": 1.0, "day": 0, "wane_lo": 2, "wane_hi": 4},
        )
        sim = SequentialSimulator(sc)
        v = sc.disease.index["V"]
        sim.step_day()
        assert (sim.health_state == v).all()
        assert (sim.treatment == VACCINATED).all()
        for _ in range(sc.n_days - 1):
            sim.step_day()
        # Everyone waned back: susceptible again, tag cleared.
        assert (sim.health_state == sc.disease.susceptible_index).all()
        assert (sim.treatment == UNTREATED).all()

    def test_turnover_reopens_the_susceptible_pool(self, graph):
        sc = build_scenario(
            "turnover", graph, n_days=16, seed=0, transmissibility=5e-4,
            params={"rate": 0.5},
        )
        result = SequentialSimulator(sc).run()
        # With rebirth, cumulative infections can exceed the population.
        assert result.total_infections > 0
        assert result.final_histogram.get("S", 0) > 0

    def test_quarantine_reduces_attack_rate(self, graph):
        def run(detection):
            sc = build_scenario(
                "contact-tracing", graph, n_days=14, seed=0,
                transmissibility=5e-4,
                params={"detection": detection, "report_delay": 0,
                        "compliance": 1.0, "quarantine_days": 14},
            )
            return SequentialSimulator(sc).run().total_infections

        assert run(1.0) < run(0.0)
