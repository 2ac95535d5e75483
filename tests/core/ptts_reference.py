"""Scalar reference for the PTTS person phase — a test oracle.

These two functions are the per-person loops ``DiseaseModel.advance_day``
and ``DiseaseModel.infect`` ran before they were vectorised, kept
verbatim: one ``RngFactory.stream`` Generator per transition,
``gen.random()`` + ``searchsorted`` for the branch, ``dwell.sample(gen,
1)`` for the dwell.  They *define* what the batched code must reproduce
bit-for-bit (``test_ptts_batched.py``); nothing under ``src/`` calls
them.
"""

import numpy as np

from repro.core.disease import FOREVER, UNTREATED, DwellKind
from repro.util.rng import RngFactory

ADVANCE_SALT = 0
INFECT_SALT = 1


def advance_day(model, state, remaining, treatment, day, rng_factory, subset=None):
    if subset is None:
        live = remaining != FOREVER
        remaining[live] -= 1
        due = np.flatnonzero(live & (remaining <= 0))
    else:
        subset = np.asarray(subset, dtype=np.int64)
        live = subset[remaining[subset] != FOREVER]
        remaining[live] -= 1
        due = live[remaining[live] <= 0]
    if due.size == 0:
        return due
    changed: list[int] = []
    for p in due:
        p = int(p)
        s = int(state[p])
        t = int(treatment[p])
        compiled = model._compiled.get((s, t)) or model._compiled.get((s, UNTREATED))
        if compiled is None:
            continue
        gen = rng_factory.stream(RngFactory.PERSON, day, p, ADVANCE_SALT)
        targets, cum = compiled
        choice = min(int(np.searchsorted(cum, gen.random(), side="right")), len(targets) - 1)
        ns = int(targets[choice])
        state[p] = ns
        dwell = model.states[ns].dwell
        remaining[p] = FOREVER if dwell.kind == DwellKind.FOREVER else int(dwell.sample(gen, 1)[0])
        changed.append(p)
    return np.asarray(changed, dtype=np.int64)


def infect(model, persons, state, remaining, treatment, day, rng_factory):
    entry_by_state_index = {
        model.index[src]: model.index[dst]
        for src, dst in model.infection_entry_by_state.items()
    }
    persons = np.unique(np.asarray(persons, dtype=np.int64))
    mask = model.is_susceptible[state[persons]]
    hit = persons[mask]
    for p in hit:
        p = int(p)
        entry = entry_by_state_index.get(int(state[p]))
        if entry is None:
            entry = model.entry_state(int(treatment[p]))
        state[p] = entry
        dwell = model.states[entry].dwell
        if dwell.kind == DwellKind.FOREVER:
            remaining[p] = FOREVER
        else:
            gen = rng_factory.stream(RngFactory.PERSON, day, p, INFECT_SALT)
            remaining[p] = int(dwell.sample(gen, 1)[0])
    return hit
