"""Intervention semantics and the script parser."""

import numpy as np
import pytest

from repro.core import (
    Scenario,
    SchoolClosure,
    SequentialSimulator,
    StayHomeWhenSymptomatic,
    TransmissionModel,
    Vaccination,
    WorkClosure,
    parse_intervention_script,
)
from repro.core.disease import VACCINATED, influenza_model
from repro.core.interventions import DayContext, InterventionSchedule, _Trigger
from repro.synthpop.graph import LocationType
from repro.util.rng import RngFactory


def _ctx(graph, day=0, prevalence=0.0):
    d = influenza_model()
    state, _ = d.initial_health(graph.n_persons)
    return DayContext(
        day=day,
        graph=graph,
        disease=d,
        health_state=state,
        treatment=np.zeros(graph.n_persons, dtype=np.int32),
        prevalence=prevalence,
        cumulative_attack=0.0,
        rng_factory=RngFactory(0),
    )


class TestTrigger:
    def test_requires_exactly_one_condition(self):
        with pytest.raises(ValueError):
            _Trigger()
        with pytest.raises(ValueError):
            _Trigger(day=1, prevalence=0.5)

    def test_day_trigger_window(self, tiny_graph):
        t = _Trigger(day=3, duration=2)
        assert not t.active(_ctx(tiny_graph, day=2))
        assert t.active(_ctx(tiny_graph, day=3))
        assert t.active(_ctx(tiny_graph, day=4))
        assert not t.active(_ctx(tiny_graph, day=5))

    def test_prevalence_trigger_latches(self, tiny_graph):
        t = _Trigger(prevalence=0.1, duration=None)
        assert not t.active(_ctx(tiny_graph, day=0, prevalence=0.05))
        assert t.active(_ctx(tiny_graph, day=1, prevalence=0.2))
        # Stays active even after prevalence drops (duration=None).
        assert t.active(_ctx(tiny_graph, day=2, prevalence=0.0))


class TestVaccination:
    def test_coverage_fraction(self, small_graph):
        ctx = _ctx(small_graph)
        Vaccination(coverage=0.4, day=0).update_treatments(ctx)
        frac = np.mean(ctx.treatment == VACCINATED)
        assert frac == pytest.approx(0.4, abs=0.06)

    def test_age_targeting(self, small_graph):
        ctx = _ctx(small_graph)
        Vaccination(coverage=1.0, day=0, age_min=5, age_max=17).update_treatments(ctx)
        ages = small_graph.person_age
        assert np.all(ctx.treatment[(ages >= 5) & (ages <= 17)] == VACCINATED)
        assert np.all(ctx.treatment[ages > 17] != VACCINATED)

    def test_one_shot(self, small_graph):
        ctx0 = _ctx(small_graph, day=0)
        iv = Vaccination(coverage=0.2, day=0)
        iv.update_treatments(ctx0)
        before = ctx0.treatment.copy()
        iv.update_treatments(_ctx(small_graph, day=1))
        np.testing.assert_array_equal(before, ctx0.treatment)

    def test_invalid_coverage(self):
        with pytest.raises(ValueError):
            Vaccination(coverage=1.5)


class TestClosures:
    def test_school_closure_removes_school_visits(self, small_graph):
        ctx = _ctx(small_graph)
        sched = InterventionSchedule([SchoolClosure(day=0, duration=10)])
        keep = sched.visit_mask(ctx)
        types = small_graph.location_type[small_graph.visit_location]
        assert not np.any(keep & (types == LocationType.SCHOOL))
        assert np.all(keep[types == LocationType.HOME])

    def test_work_closure_respects_rows_subset(self, small_graph):
        ctx = _ctx(small_graph)
        sched = InterventionSchedule([WorkClosure(day=0)])
        full = sched.visit_mask(ctx)
        rows = np.arange(0, small_graph.n_visits, 3)
        sub = sched.visit_mask(_ctx(small_graph), rows=rows)
        np.testing.assert_array_equal(sub, full[rows])

    def test_inactive_before_trigger(self, small_graph):
        ctx = _ctx(small_graph, day=0)
        sched = InterventionSchedule([SchoolClosure(day=5)])
        assert sched.visit_mask(ctx).all()


class TestStayHome:
    def test_noop_when_nobody_sick(self, small_graph):
        ctx = _ctx(small_graph)
        sched = InterventionSchedule([StayHomeWhenSymptomatic(compliance=1.0)])
        assert sched.visit_mask(ctx).all()

    def test_sick_compliant_person_keeps_only_home_visits(self, small_graph):
        ctx = _ctx(small_graph)
        d = ctx.disease
        sick = 7
        ctx.health_state[sick] = d.state_index("infectious_symptomatic")
        sched = InterventionSchedule([StayHomeWhenSymptomatic(compliance=1.0)])
        keep = sched.visit_mask(ctx)
        g = small_graph
        mine = g.visit_person == sick
        at_home = g.visit_location == g.person_home[sick]
        assert np.all(keep[mine & at_home])
        assert not np.any(keep[mine & ~at_home])

    def test_subset_evaluation_matches_full(self, small_graph):
        ctx = _ctx(small_graph)
        d = ctx.disease
        rng = np.random.default_rng(0)
        sick = rng.choice(small_graph.n_persons, 40, replace=False)
        ctx.health_state[sick] = d.state_index("infectious_symptomatic")
        sched = InterventionSchedule([StayHomeWhenSymptomatic(compliance=0.5)])
        full = sched.visit_mask(ctx)
        # Evaluate per-person-chunk (as PersonManagers do) and compare.
        ptr = small_graph.person_visit_slices()
        got = np.ones_like(full)
        for chunk in np.array_split(np.arange(small_graph.n_persons), 7):
            if chunk.size == 0:
                continue
            rows = np.concatenate(
                [np.arange(ptr[p], ptr[p + 1]) for p in chunk]
            ).astype(np.int64)
            got[rows] = sched.visit_mask(ctx, rows=rows)
        np.testing.assert_array_equal(got, full)


class TestParser:
    def test_full_script(self):
        sched = parse_intervention_script(
            """
            # course-of-action study
            vaccinate coverage=0.25 day=0 ages=5-18
            close_schools prevalence=0.01 duration=21
            close_work day=30 duration=7
            stay_home compliance=0.6
            """
        )
        assert len(sched) == 4
        kinds = [type(iv).__name__ for iv in sched]
        assert kinds == [
            "Vaccination", "SchoolClosure", "WorkClosure", "StayHomeWhenSymptomatic",
        ]

    def test_unknown_directive(self):
        with pytest.raises(ValueError, match="unknown directive"):
            parse_intervention_script("quarantine day=1")

    def test_unexpected_argument(self):
        with pytest.raises(ValueError, match="unexpected"):
            parse_intervention_script("stay_home compliance=0.5 bogus=1")

    def test_malformed_kv(self):
        with pytest.raises(ValueError, match="key=value"):
            parse_intervention_script("vaccinate coverage")

    def test_empty_script(self):
        assert len(parse_intervention_script("\n  # nothing\n")) == 0


class TestEndToEndEffect:
    def test_vaccination_reduces_attack_rate(self, wy_graph):
        base = Scenario(
            graph=wy_graph, n_days=40, seed=11, initial_infections=5,
            transmission=TransmissionModel(2e-4),
        )
        res_base = SequentialSimulator(base).run()
        vax = Scenario(
            graph=wy_graph, n_days=40, seed=11, initial_infections=5,
            transmission=TransmissionModel(2e-4),
            interventions=InterventionSchedule([Vaccination(coverage=0.8, day=0)]),
        )
        res_vax = SequentialSimulator(vax).run()
        assert res_vax.total_infections < res_base.total_infections


class TestWeekendSchedule:
    """The weekly rhythm over long runs: weekend days drop work and
    school visits."""

    def test_weekday_untouched(self, small_graph):
        from repro.core.interventions import InterventionSchedule, WeekendSchedule

        ctx = _ctx(small_graph, day=2)  # a weekday
        sched = InterventionSchedule([WeekendSchedule(compliance=1.0)])
        assert sched.visit_mask(ctx).all()

    def test_weekend_drops_work_and_school(self, small_graph):
        from repro.core.interventions import InterventionSchedule, WeekendSchedule
        from repro.synthpop.graph import LocationType

        ctx = _ctx(small_graph, day=5)  # weekend
        sched = InterventionSchedule([WeekendSchedule(compliance=1.0)])
        keep = sched.visit_mask(ctx)
        types = small_graph.location_type[small_graph.visit_location]
        workish = (types == LocationType.WORK) | (types == LocationType.SCHOOL)
        assert not np.any(keep & workish)
        assert keep[~workish].all()

    def test_partial_compliance_statistics(self, small_graph):
        from repro.core.interventions import InterventionSchedule, WeekendSchedule
        from repro.synthpop.graph import LocationType

        ctx = _ctx(small_graph, day=6)
        sched = InterventionSchedule([WeekendSchedule(compliance=0.5)])
        keep = sched.visit_mask(ctx)
        types = small_graph.location_type[small_graph.visit_location]
        workish = (types == LocationType.WORK) | (types == LocationType.SCHOOL)
        frac_kept = keep[workish].mean()
        assert 0.3 < frac_kept < 0.7

    def test_script_directive(self):
        from repro.core.interventions import WeekendSchedule, parse_intervention_script

        sched = parse_intervention_script("weekends compliance=0.8")
        assert isinstance(sched.interventions[0], WeekendSchedule)
        assert sched.interventions[0].compliance == 0.8

    def test_parallel_equivalence_with_weekends(self, tiny_graph):
        from repro.charm.machine import Machine, MachineConfig
        from repro.core import Scenario, SequentialSimulator, TransmissionModel
        from repro.core.interventions import InterventionSchedule, WeekendSchedule
        from repro.core.parallel import Distribution, ParallelEpiSimdemics
        from repro.partition import round_robin_partition

        def scenario():
            return Scenario(
                graph=tiny_graph, n_days=10, seed=4, initial_infections=5,
                transmission=TransmissionModel(2e-4),
                interventions=InterventionSchedule([WeekendSchedule()]),
            )

        seq = SequentialSimulator(scenario()).run()
        mc = MachineConfig(n_nodes=2, cores_per_node=4, smp=True, processes_per_node=1)
        m = Machine(mc)
        dist = Distribution.from_partition(round_robin_partition(tiny_graph, m.n_pes), m)
        par = ParallelEpiSimdemics(scenario(), mc, dist).run()
        assert par.result.curve == seq.curve
