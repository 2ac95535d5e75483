"""``day.prevalence`` and ``open_day``'s cumulative attack against the
loop they replaced.

``day_loop_reference.ReferenceDayLoop._prevalence`` and its
``ever_infected.mean()`` are the previous definitions, verbatim: the
state of every person, masked.  Production counts the ever-infected
persons per state instead.  Over every registered disease model both
floats must be ``==``, on states that include the cases a per-state
count could get wrong: ever-infected persons back in susceptible
(``DemographicTurnover``), terminal states that are partly susceptible
(``two-variant``'s ``R_A`` / ``R_B``) and never-infected persons in any
state (vaccinated ones included).  An ever-infected person whose state
is out of range raises, as the C walk does.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import Scenario
from repro.core import day as day_steps
from repro.core.disease import influenza_model, sir_model
from repro.scenarios import registry

from .day_loop_reference import ReferenceDayLoop

DISEASES = {
    "influenza": influenza_model(),
    "sir": sir_model(),
    **{name: registry.build_components(name)[0] for name in registry.names()},
}


def _planted(disease, n_persons, rng, p_ever):
    """Random states and ever-infected flags, with the awkward cases
    planted at the front: susceptible again, each terminal state after
    an infection, and each state without one."""
    n_states = disease.n_states
    health = rng.integers(0, n_states, n_persons, dtype=np.int32)
    ever = rng.random(n_persons) < p_ever
    terminal = np.flatnonzero(disease.is_terminal)
    front = np.concatenate([[disease.susceptible_index], terminal, np.arange(n_states)])
    health[: front.size] = front
    ever[: 1 + terminal.size] = True
    ever[1 + terminal.size : front.size] = False
    return health, ever


@given(
    name=st.sampled_from(sorted(DISEASES)),
    seed=st.integers(0, 2**32 - 1),
    p_ever=st.sampled_from([0.0, 0.01, 0.5, 1.0]),
)
def test_prevalence_and_attack_equal_the_reference(tiny_graph, name, seed, p_ever):
    scenario = Scenario(graph=tiny_graph, disease=DISEASES[name])
    reference = ReferenceDayLoop(scenario)
    rng = np.random.default_rng(seed)
    health, ever = _planted(scenario.disease, tiny_graph.n_persons, rng, p_ever)
    reference.health_state[:] = health
    reference._ever_infected[:] = ever

    state = day_steps.EpidemicState.initial(scenario)
    state.health_state[:] = health
    state.ever_infected[:] = ever
    state.seeded = True  # open_day seeds no index cases
    ctx, seeded = day_steps.open_day(state, scenario, 0)

    assert seeded == 0
    assert day_steps.prevalence(state, scenario) == reference._prevalence()
    assert ctx.prevalence == reference._prevalence()
    assert ctx.cumulative_attack == float(reference._ever_infected.mean())


@pytest.mark.parametrize("bad", [-1, 99])
def test_an_ever_infected_state_out_of_range_raises(tiny_graph, bad):
    """-1 used to read the last state's terminal flag and count silently;
    99 raised a bare ``IndexError``."""
    scenario = Scenario(graph=tiny_graph)
    state = day_steps.EpidemicState.initial(scenario)
    state.ever_infected[:3] = True
    state.health_state[1] = bad
    with pytest.raises(ValueError, match="health_state out of range"):
        day_steps.prevalence(state, scenario)
