"""The population generators' assembly and weighted draw before they
dropped their sorts and binary searches, kept verbatim — test oracles.

* :func:`stream_block_assembly` is the tail of
  ``repro.synthpop.stream._generate_block``: the block's visit pieces
  concatenated (morning home visits, evening home visits, activity
  visits) and put in ``(person, start)`` order by a stable ``lexsort``.
* :func:`dense_assembly` is the same step of
  ``repro.synthpop.generator._generate_population`` over the whole
  population.
* :class:`WeightedPool` is ``repro.synthpop.stream._WeightedPool``: the
  attractiveness CDF and one ``np.searchsorted`` per draw.

Production places each piece straight at its row
(``generator._person_major`` / ``_place``) and searches through
``repro.synthpop.guide.GuideTable``; ``test_synth_exact.py`` holds both
to these, and the dense generator's draws to ``Generator.choice``.
Nothing under ``src/`` calls them.
"""

from __future__ import annotations

import numpy as np


def stream_block_assembly(
    lo, persons_local, visit_person_act, person_building, visit_location_act,
    person_slot, subloc_act, morning_start, evening_start, start_act,
    morning_end, evening_end, end_act,
) -> dict:
    # --- assemble, block-local sort ---------------------------------------
    person = np.concatenate([persons_local, persons_local, visit_person_act])
    location = np.concatenate(
        [person_building, person_building, visit_location_act]
    ).astype(np.int64)
    subloc = np.concatenate([person_slot, person_slot, subloc_act])
    start = np.concatenate([morning_start, evening_start, start_act])
    end = np.concatenate([morning_end, evening_end, end_act])
    order = np.lexsort((start, person))
    return {
        "person": (person[order] + lo).astype(np.int64),
        "location": location[order],
        "subloc": subloc[order],
        "start": start[order].astype(np.int32),
        "end": end[order].astype(np.int32),
    }


def dense_assembly(
    n, visit_person_act, person_building, visit_location_act, person_slot,
    subloc_act, morning_start, evening_start, visit_start_act, morning_end,
    evening_end, visit_end_act,
) -> dict:
    # --- assemble -------------------------------------------------------------
    persons = np.arange(n, dtype=np.int64)
    visit_person = np.concatenate([persons, persons, visit_person_act])
    visit_location = np.concatenate(
        [person_building, person_building, visit_location_act]
    ).astype(np.int64)
    visit_subloc = np.concatenate(
        [person_slot.astype(np.int32), person_slot.astype(np.int32), subloc_act]
    )
    visit_start = np.concatenate([morning_start, evening_start, visit_start_act])
    visit_end = np.concatenate([morning_end, evening_end, visit_end_act])

    order = np.lexsort((visit_start, visit_person))
    return dict(
        visit_person=visit_person[order],
        visit_location=visit_location[order],
        visit_subloc=visit_subloc[order],
        visit_start=visit_start[order].astype(np.int32),
        visit_end=visit_end[order].astype(np.int32),
    )


class WeightedPool:
    """A location subset with its attractiveness CDF: one uniform per
    draw via ``searchsorted`` (no per-draw O(n_locations) work)."""

    __slots__ = ("ids", "cdf")

    def __init__(self, ids: np.ndarray, attract: np.ndarray):
        self.ids = ids
        w = attract[ids].astype(np.float64)
        cdf = np.cumsum(w)
        cdf /= cdf[-1]
        cdf[-1] = 1.0
        self.cdf = cdf

    def draw(self, u: np.ndarray) -> np.ndarray:
        return self.ids[np.searchsorted(self.cdf, u, side="right")]
