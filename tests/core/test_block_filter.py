"""The sublocation-block candidate filter against the location-level oracle.

Production keeps a visit only when its ``(location, sublocation)`` block
holds an infectious and a susceptible visit today and gathers the other
columns for those rows alone; ``exposure_reference`` is the filter it
replaced (whole *locations*, every column for every row) with its three
kernels, verbatim.  Everything a caller can see must be equal — the
``infections`` list (order and ``minute``), the per-location ``events``
and ``interactions`` in insertion order (the charm load model sums
floats in that order), and every keyed draw with its hazard sum's bytes,
by key — for all three kernels (production ``flat`` against the
reference's ``grouped``, which left ``src/``); run-level cells pin the
epidemic and the simulated runtime's virtual time.  No registered disease model has a state that is both susceptible
and infectious, so a hand-built one stands in for that case.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DiseaseModel, HealthState, TransmissionModel, ckernel, influenza_model
from repro.core import exposure as production
from repro.core import day as day_steps
from repro.core.disease import UNTREATED, DwellDistribution, Transition
from repro.core.exposure import KERNELS
from repro.core.parallel import ParallelEpiSimdemics
from repro.scenarios import get as get_scenario
from repro.spec import PartitionSpec, PopulationSpec, RunSpec, RuntimeSpec, execute
from repro.synthpop.graph import PersonLocationGraph
from repro.util.rng import RngFactory

from . import exposure_reference
from .exposure_reference import production_kernel


def _kernel_cases(names):
    return pytest.mark.parametrize(
        "kernel",
        [
            pytest.param(
                k,
                marks=pytest.mark.skipif(
                    k == "compiled" and not ckernel.available(),
                    reason=f"no compiled kernel: {ckernel.build_error()}",
                ),
            )
            for k in names
        ],
    )


#: a reference case per kernel the references run, against
#: ``production_kernel(kernel)``
kernels = _kernel_cases(exposure_reference.KERNELS)
#: the kernels production runs
production_kernels = _kernel_cases(KERNELS)


def _carrier_model():
    """S → carrier (sheds *and* can be re-exposed) → I → R."""
    return DiseaseModel(
        [
            HealthState("S", susceptibility=1.0),
            HealthState(
                "carrier", infectivity=0.3, susceptibility=0.6,
                dwell=DwellDistribution.fixed(2),
                transitions={UNTREATED: (Transition("I", 1.0),)},
            ),
            HealthState(
                "I", infectivity=1.0, dwell=DwellDistribution.fixed(3),
                transitions={UNTREATED: (Transition("R", 1.0),)},
            ),
            HealthState("R"),
        ],
        susceptible="S",
        infection_entry={UNTREATED: "carrier"},
    )


DISEASES = {
    "influenza": influenza_model(),
    # 13 states with partial cross-immunity: many distinct hazard factors
    "two-variant": get_scenario("two-variant").build()[0],
    "carrier": _carrier_model(),
}


class SpyRng(RngFactory):
    """Records every keyed draw the location phase makes, in order."""

    def __init__(self, seed):
        super().__init__(seed)
        self.drawn = []

    def keyed_uniforms(self, prefix, day, locs, persons):
        self.drawn += [(prefix, day, l, p) for l, p in zip(locs.tolist(), persons.tolist())]
        return super().keyed_uniforms(prefix, day, locs, persons)

    def stream(self, *keys):
        self.drawn.append(keys)
        return super().stream(*keys)


@st.composite
def phases(draw):
    """``(graph, disease, health_state, owned, removed)`` for one location
    phase: a location mask and a removed-visit mask, None for all / none.

    Locations have 1–4 sublocations and few persons, so blocks with
    only susceptible, only infectious or only inert visitors sit beside
    transmitting ones in the same location; a second visit to a
    location prefers a *different* sublocation of it.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    n_persons = draw(st.integers(1, 14))
    n_locations = draw(st.integers(1, 4))
    n_sublocs = rng.integers(1, 5, n_locations)
    visits = []
    for person in range(n_persons):
        seen = {}
        for _ in range(draw(st.integers(0, 4))):
            loc = int(rng.integers(0, n_locations))
            sub = int(rng.integers(0, n_sublocs[loc]))
            if loc in seen and n_sublocs[loc] > 1 and rng.random() < 0.8:
                sub = (seen[loc] + 1 + int(rng.integers(0, n_sublocs[loc] - 1))) % n_sublocs[loc]
            seen[loc] = sub
            start = int(rng.integers(0, 1200))
            visits.append((person, start, loc, sub, start + int(rng.integers(1, 240))))
    visits.sort()
    cols = [np.asarray(c, dtype=np.int64) for c in zip(*visits)] if visits else [
        np.empty(0, dtype=np.int64)
    ] * 5
    graph = PersonLocationGraph(
        name="block-filter", n_persons=n_persons, n_locations=n_locations,
        visit_person=cols[0], visit_start=cols[1], visit_location=cols[2],
        visit_subloc=cols[3], visit_end=cols[4],
        location_n_sublocs=n_sublocs.astype(np.int64),
        location_type=np.zeros(n_locations, dtype=np.int64),
        person_age=np.full(n_persons, 30, dtype=np.int64),
        person_home=np.zeros(n_persons, dtype=np.int64),
    )
    graph.validate()

    disease = DISEASES[draw(st.sampled_from(sorted(DISEASES)))]
    mix = draw(st.sampled_from(["mixed", "mixed", "no-infectious", "no-susceptible"]))
    allowed = np.flatnonzero({
        "mixed": np.ones(len(disease.states), dtype=bool),
        "no-infectious": ~disease.is_infectious,
        "no-susceptible": ~disease.is_susceptible,
    }[mix])
    # weight the susceptible and infectious states up, or most 13-state
    # draws would land on inert ones and nothing could transmit
    weight = 1.0 + 4.0 * (disease.is_susceptible | disease.is_infectious)[allowed]
    health = rng.choice(allowed, n_persons, p=weight / weight.sum())

    owned = removed = None
    subset = draw(st.sampled_from(["all", "by-location", "by-block", "any"]))
    if subset == "by-location":  # what one LocationManager owns
        owned = np.arange(n_locations) % 2 == draw(st.integers(0, 1))
    elif subset == "by-block":  # no intervention does this; the two filters still agree
        removed = (graph.visit_location + graph.visit_subloc) % 2 == draw(st.integers(0, 1))
    elif subset == "any":
        owned = rng.random(n_locations) < 0.7
        removed = rng.random(graph.n_visits) < 0.3
    return graph, disease, health, owned, removed


def _observable(module, kernel, graph, disease, health, owned, removed, seed=11):
    hazard_sums = []

    class SpyTransmission(TransmissionModel):
        """Keeps the summed hazards it is asked to turn into probabilities:
        float addition is not associative, so equal bytes mean equal order."""

        def probability(self, total_hazard):
            hazard_sums.append(np.asarray(total_hazard).tobytes())
            return super().probability(total_hazard)

    rng = SpyRng(seed)
    out = module.compute_infections(
        graph, health, disease, SpyTransmission(4e-3), 3, rng,
        owned=owned, removed=removed, collect_stats=True, kernel=kernel,
    )
    # One hazard sum per keyed draw, in the same slot order; slots within
    # a location come in no fixed order (the compiled kernel's), so each
    # draw and its sum compare by key.
    sums = np.frombuffer(b"".join(hazard_sums), dtype=np.float64)
    assert sums.size == len(rng.drawn)
    by_key = sorted(range(sums.size), key=rng.drawn.__getitem__)
    return {
        "infections": [(e.person, e.location, e.minute) for e in out.infections],
        "events": list(out.events.items()),
        "interactions": list(out.interactions.items()),
        "drawn": [rng.drawn[i] for i in by_key],
        "hazard_sums": sums[by_key].tobytes(),
    }


@kernels
@given(phases())
@settings(max_examples=150, deadline=None)
def test_block_filter_equals_location_filter(kernel, phase):
    got = _observable(production, production_kernel(kernel), *phase)
    expected = _observable(exposure_reference, kernel, *phase)
    for key, value in expected.items():
        assert got[key] == value, key


@production_kernels
@given(phases(), st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_rows_out_of_order_are_refused(kernel, phase, seed):
    """Owners hand in masks, not row lists, so no order is left to get
    wrong.  A row list where a mask goes — ascending, shuffled,
    repeated, or ``arange(n_visits)``, exactly a mask's length — raises
    instead of being read as one."""
    graph, disease, health, owned, removed = phase
    rows = exposure_reference.rows_of(graph, owned, removed)
    shuffled = np.random.default_rng(seed).permutation(rows)
    for bad in (rows, shuffled, np.repeat(rows, 2), np.arange(graph.n_visits)):
        for masks in ({"owned": bad}, {"removed": bad}):
            with pytest.raises(ValueError, match="bool mask"):
                production.compute_infections(
                    graph, health, disease, TransmissionModel(4e-3), 3, RngFactory(11),
                    kernel=kernel, **masks,
                )


def test_strategy_reaches_the_case_that_matters():
    """The property is vacuous unless some example transmits in one room
    of a location whose other rooms the new filter drops, with a person
    who visits two rooms of it; hypothesis must be able to find one."""
    from hypothesis import find

    def transmits_beside_dropped_rooms(phase):
        graph, disease, health, owned, removed = phase
        sus = disease.is_susceptible[health[graph.visit_person]]
        inf = disease.is_infectious[health[graph.visit_person]]
        block = graph.visit_location * 8 + graph.visit_subloc
        both = set(block[sus]) & set(block[inf])
        lonely = (set(block[sus]) | set(block[inf])) - both
        revisits = len(set(zip(graph.visit_person, block))) > len(
            set(zip(graph.visit_person, graph.visit_location))
        )
        return (
            owned is None and removed is None and revisits
            and {b // 8 for b in both} & {b // 8 for b in lonely}
            and _observable(production, "flat", *phase)["infections"]
        )

    find(phases(), transmits_beside_dropped_rooms,
         settings=settings(max_examples=2000, deadline=None))


def test_dropped_rows_are_exactly_the_ones_in_no_transmitting_block():
    """Hand-built: location 0 has a transmitting room, an all-susceptible
    room, an all-infectious room and a recovered-only room; person 0
    visits the transmitting room *and* the all-susceptible one."""
    disease = DISEASES["influenza"]
    S, I, R = (disease.index[n] for n in ("susceptible", "infectious_symptomatic", "recovered"))
    #         person loc sub start end
    visits = [(0, 0, 0, 100, 200), (0, 0, 1, 300, 400),   # S: room 0 (with I) and room 1 (S only)
              (1, 0, 0, 150, 260),                         # I: room 0
              (2, 0, 1, 300, 400),                         # S: room 1
              (3, 0, 2, 100, 400), (4, 0, 2, 100, 400),    # I, I: room 2
              (5, 0, 3, 100, 400),                         # R: room 3
              (6, 1, 0, 100, 400)]                         # S alone at location 1
    p, l, s, a, b = (np.asarray(c, dtype=np.int64) for c in zip(*visits))
    graph = PersonLocationGraph(
        name="rooms", n_persons=7, n_locations=2, visit_person=p, visit_location=l,
        visit_subloc=s, visit_start=a, visit_end=b,
        location_n_sublocs=np.array([4, 1]), location_type=np.zeros(2, dtype=np.int64),
        person_age=np.full(7, 30), person_home=np.zeros(7, dtype=np.int64),
    )
    graph.validate()
    health = np.array([S, I, S, I, I, R, S])
    from repro import observe

    with observe.observing() as obs:
        out = production.compute_infections(
            graph, health, disease, TransmissionModel(0.5), 0, RngFactory(1),
            owned=np.ones(2, dtype=bool), removed=np.zeros(graph.n_visits, dtype=bool),
            collect_stats=True, kernel="flat",
        )
    assert obs.counters["exposure.visits"] == 8
    assert obs.counters["exposure.candidates"] == 2  # person 0 in room 0, person 1
    assert obs.counters["exposure.active_blocks"] == 1
    assert out.events == {0: 14, 1: 2}  # every row still counts as two events
    assert out.interactions == {0: 1}
    assert [(e.person, e.location, e.minute) for e in out.infections] == [(0, 0, 200)]


# ----------------------------------------------------------------------
# run level: the epidemic and the simulated runtime's virtual time
# ----------------------------------------------------------------------
def _spec(kernel, **runtime):
    return RunSpec(
        population=PopulationSpec(kind="generated", n_persons=2000, seed=20140519),
        n_days=3, seed=5, initial_infections=40, transmissibility=2.5e-5,
        runtime=RuntimeSpec(kernel=kernel, **runtime),
    )


def _use_reference(monkeypatch, kernel):
    """Swap the oracle on ``kernel`` in at the one place any backend
    reaches ``compute_infections`` through."""
    monkeypatch.setattr(
        day_steps, "compute_infections",
        exposure_reference.pinned(exposure_reference.compute_infections, kernel),
    )


@kernels
def test_sequential_run_record_is_unchanged(kernel, monkeypatch):
    spec = _spec(production_kernel(kernel))
    production_record = execute(spec).record()
    _use_reference(monkeypatch, kernel)
    assert execute(spec).record() == production_record
    assert sum(production_record["new_infections"]) > 40  # it did transmit


@kernels
def test_charm_run_virtual_time_is_unchanged(kernel, monkeypatch):
    """splitLoc'd graph, 4 PEs: ``events`` / ``interactions`` feed the
    load model, so equal virtual time pins them through a whole run."""
    spec = _spec(production_kernel(kernel), backend="charm", workers=4)
    graph, part = PartitionSpec("gp", k=4, split=True).build(spec.population.build())

    def run():
        out = ParallelEpiSimdemics.from_spec(spec, graph=graph, partition=part).run()
        return out.phase_times, out.total_virtual_time, out.runtime_stats, out.result.curve

    got = run()
    _use_reference(monkeypatch, kernel)
    assert run() == got
    assert len(got[0]) == 3
