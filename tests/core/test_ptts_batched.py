"""Batched ``advance_day`` / ``infect`` ≡ the scalar per-person reference.

The person phase draws nothing through a ``Generator`` any more: branch
and dwell come from replayed PCG64 outputs (``repro.util.pcg``,
``DwellDistribution.replay``).  The contract is bit-for-bit equality
with the loop it replaced (``ptts_reference``) — in ``state``,
``remaining`` and the returned ids — for any PTTS, including the rows
that fall back to a live Generator.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.disease import (
    UNTREATED,
    DiseaseModel,
    DwellDistribution,
    HealthState,
    Transition,
    influenza_model,
)
from repro.core.scenario import Scenario
from repro.core.simulator import SequentialSimulator
from repro.core.transmission import TransmissionModel
from repro.util.rng import RngFactory
from tests.core import ptts_reference

# ----------------------------------------------------------------------
# random PTTS
# ----------------------------------------------------------------------
finite_dwells = st.one_of(
    st.integers(1, 4).map(DwellDistribution.fixed),
    st.integers(1, 5).map(lambda lo: DwellDistribution.uniform(lo, lo)),
    st.tuples(st.integers(1, 3), st.integers(1, 6)).map(
        lambda t: DwellDistribution.uniform(t[0], t[0] + t[1])
    ),
    # a span near 2**31: about a third of the Lemire draws are rejected
    st.integers(1_400_000_000, 1_600_000_000).map(lambda hi: DwellDistribution.uniform(1, hi)),
    # numpy searches for p >= 1/3 (replayed) and inverts below (fallback)
    st.sampled_from([1.0, 0.9, 0.5, 1 / 3, 0.34, 0.33, 0.2, 0.05]).map(
        DwellDistribution.geometric
    ),
    st.tuples(st.floats(0.5, 4.0), st.floats(0.5, 3.0)).map(
        lambda t: DwellDistribution.gamma(*t)
    ),
)


@st.composite
def branches(draw, names):
    targets = draw(st.lists(st.sampled_from(names), min_size=1, max_size=3))
    weights = draw(st.lists(st.integers(1, 9), min_size=len(targets), max_size=len(targets)))
    return tuple(Transition(t, w / sum(weights)) for t, w in zip(targets, weights))


@st.composite
def disease_models(draw):
    mid = [f"M{i}" for i in range(draw(st.integers(1, 4)))]
    names = mid + ["P", "R"]
    states = [HealthState("S", susceptibility=1.0)]
    for name in mid:
        transitions = {UNTREATED: draw(branches(names))}
        if draw(st.booleans()):
            transitions[1] = draw(branches(names))
        states.append(
            HealthState(
                name,
                infectivity=1.0,
                dwell=draw(finite_dwells),
                transitions=transitions,
            )
        )
    # P: partially immune, reinfectable; waning back through the chain
    # in some models, held until reinfected in others.
    if draw(st.booleans()):
        states.append(
            HealthState(
                "P",
                susceptibility=0.5,
                dwell=draw(finite_dwells),
                transitions={UNTREATED: draw(branches(names))},
            )
        )
    else:
        states.append(HealthState("P", susceptibility=0.5))
    states.append(HealthState("R"))
    entry = {UNTREATED: draw(st.sampled_from(mid))}
    if draw(st.booleans()):
        entry[1] = draw(st.sampled_from(names))
    by_state = {"P": draw(st.sampled_from(names))} if draw(st.booleans()) else None
    return DiseaseModel(states, "S", entry, infection_entry_by_state=by_state)


N = 48
ids = st.lists(st.integers(0, N - 1), max_size=30)  # duplicates welcome


@st.composite
def courses(draw):
    """A model, treatments, and a few days of infect messages."""
    model = draw(disease_models())
    # treatment 2 is known to no state: it falls back to UNTREATED
    treatment = np.array(draw(st.lists(st.integers(0, 2), min_size=N, max_size=N)), dtype=np.int8)
    seeding = draw(ids)
    daily = draw(st.lists(ids, min_size=1, max_size=6))
    return model, treatment, seeding, daily, draw(st.integers(0, 2**32))


@st.composite
def splits(draw):
    """The population cut into disjoint subsets (one may be empty), in a
    shuffled order — how PersonManager chares would own it."""
    order = np.array(draw(st.permutations(range(N))), dtype=np.int64)
    cut = draw(st.integers(0, N))
    return [order[:cut], order[cut:]]


def run_course(course, advance, infect, split=(None,)):
    """Seed on day -1, then advance + infect each day; log everything."""
    model, treatment, seeding, daily, root = course
    f = RngFactory(root)
    state, remaining = model.initial_health(N)
    # one person parked in the absorbing state with a finite timer: it
    # comes due and must be left where it is
    state[N - 1], remaining[N - 1] = model.index["R"], 2
    ids_log = [infect(np.array(seeding, dtype=np.int64), state, remaining, treatment, -1, f)]
    health_log = []
    for day, persons in enumerate(daily):
        for subset in split:
            ids_log.append(advance(state, remaining, treatment, day, f, subset=subset))
        ids_log.append(
            infect(np.array(persons, dtype=np.int64), state, remaining, treatment, day, f)
        )
        health_log += [state.copy(), remaining.copy()]
    return ids_log, health_log


def reference(model):
    return (
        lambda *a, **k: ptts_reference.advance_day(model, *a, **k),
        lambda *a, **k: ptts_reference.infect(model, *a, **k),
    )


def assert_same(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x.dtype == y.dtype
        np.testing.assert_array_equal(x, y)


class TestBatchedEqualsScalarReference:
    @given(courses(), st.one_of(st.just((None,)), splits()))
    @settings(max_examples=150, deadline=None)
    def test_state_remaining_and_ids(self, course, split):
        """Same walk (whole population, or the same subsets in the same
        order): identical health arrays and identical returned ids, in
        ``due`` order, as ``int64``."""
        model = course[0]
        got_ids, got_health = run_course(course, model.advance_day, model.infect, split)
        want_ids, want_health = run_course(course, *reference(model), split)
        assert_same(got_health, want_health)
        assert_same(got_ids, want_ids)
        assert all(a.dtype == np.int64 for a in got_ids)

    @given(courses(), splits())
    @settings(max_examples=60, deadline=None)
    def test_disjoint_subsets_union_to_the_whole(self, course, split):
        model = course[0]
        whole_ids, whole_health = run_course(course, model.advance_day, model.infect)
        part_ids, part_health = run_course(course, model.advance_day, model.infect, split)
        assert_same(whole_health, part_health)
        assert sorted(np.concatenate(whole_ids)) == sorted(np.concatenate(part_ids))

    def test_empty_inputs(self):
        m = influenza_model()
        f = RngFactory(0)
        state, remaining = m.initial_health(5)
        treatment = np.zeros(5, dtype=np.int8)
        none = np.array([], dtype=np.int64)
        assert m.infect(none, state, remaining, treatment, 0, f).size == 0
        assert m.advance_day(state, remaining, treatment, 0, f).size == 0
        assert m.advance_day(state, remaining, treatment, 0, f, subset=none).size == 0
        m.infect(np.array([1, 1, 3]), state, remaining, treatment, -1, f)
        assert m.advance_day(state, remaining, treatment, 0, f, subset=none).size == 0
        np.testing.assert_array_equal(state != m.susceptible_index, [0, 1, 0, 1, 0])


class TestNoStreamsInThePersonPhase:
    def test_influenza_run_builds_no_generator(self, tiny_graph, monkeypatch):
        """A whole ``influenza_model`` epidemic: zero ``stream`` calls
        from ``advance_day`` / ``infect`` (UNIFORM dwell replays; a
        Lemire rejection is a < 2**-30 event)."""
        scenario = Scenario(
            graph=tiny_graph,
            disease=influenza_model(),
            transmission=TransmissionModel(2e-4),
            n_days=15,
            seed=3,
            initial_infections=10,
        )
        calls = []
        real = RngFactory.stream

        def spy(self, *keys):
            calls.append(keys)
            return real(self, *keys)

        monkeypatch.setattr(RngFactory, "stream", spy)
        built = []
        real_generator = np.random.Generator
        monkeypatch.setattr(
            np.random, "Generator", lambda bg: built.append(bg) or real_generator(bg)
        )
        result = SequentialSimulator(scenario).run()
        assert result.total_infections > 50  # a real epidemic ran
        assert [k for k in calls if k[0] == RngFactory.PERSON] == []
        # index-case selection is the only stream of the run
        assert len(built) == len(calls) <= 1
