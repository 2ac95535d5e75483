"""The mask form of the location phase against the row-list oracle.

An owner hands ``compute_infections`` a bool mask over locations
(``owned``) and a bool mask over visit rows (``removed``, the visits
interventions dropped today); before, it handed an ascending list of
the rows it had received.  ``exposure_reference.compute_infections``
is the location-level filter, kept verbatim, run over exactly that list
— ``flatnonzero(owned[visit_location] & ~removed)`` — so equal records,
``events`` (insertion order included: the charm load model sums in it)
and ``interactions`` pin the mask form to what every owner computed
before, on every kernel (production ``flat`` against the reference's
``grouped``) and with either walk.  A disjoint cover of the
locations must also add up to the ``owned=None`` call: that is what
lets the backends split the phase by location at all.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ckernel
from repro.core import exposure as production

from . import exposure_reference
from .exposure_reference import production_kernel
from .test_block_filter import _observable, kernels, phases


@st.composite
def covers(draw):
    """A phase, a random disjoint cover of its locations by 1–4 owners
    (some may own nothing) and a removed-visit mask (or None)."""
    graph, disease, health, _, _ = draw(phases())
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    k = draw(st.integers(1, 4))
    owner = rng.integers(0, k, graph.n_locations)
    share = draw(st.sampled_from([None, 0.0, 0.3, 1.0]))
    removed = None if share is None else rng.random(graph.n_visits) < share
    return graph, disease, health, [owner == c for c in range(k)], removed


walks = pytest.mark.parametrize(
    "walk",
    [
        pytest.param("c", marks=pytest.mark.skipif(
            not ckernel.available(), reason=f"no compiled kernel: {ckernel.build_error()}")),
        "numpy",
    ],
)


@kernels
@walks
@given(covers())
@settings(max_examples=120, deadline=None)
def test_mask_form_equals_the_row_list_oracle(kernel, walk, cover):
    graph, disease, health, owned_masks, removed = cover
    ran = production_kernel(kernel)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ckernel, "available", lambda: walk == "c")
        whole = _observable(production, ran, graph, disease, health, None, removed)
        parts = [
            _observable(production, ran, graph, disease, health, owned, removed)
            for owned in owned_masks
        ]
    for owned, got in zip(owned_masks, parts):
        today = owned[graph.visit_location]
        if removed is not None:
            today &= ~removed
        assert exposure_reference.rows_of(graph, owned, removed).tolist() == (
            np.flatnonzero(today).tolist())  # the rows the oracle runs over
        expected = _observable(exposure_reference, kernel, graph, disease, health, owned, removed)
        for key in ("infections", "events", "interactions"):
            assert got[key] == expected[key], key
    # the union over the cover is the whole call
    assert sorted(sum((p["infections"] for p in parts), [])) == sorted(whole["infections"])
    for key in ("events", "interactions"):
        merged = Counter()
        for p in parts:
            merged.update(dict(p[key]))
        assert dict(merged) == dict(whole[key]), key
    assert sorted(sum((p["drawn"] for p in parts), [])) == sorted(whole["drawn"])


@walks
@given(covers())
@settings(max_examples=60, deadline=None)
def test_walk_counts_add_up_over_a_cover(walk, cover):
    """``walk_rows``, candidates and active blocks count only what an
    owner keeps (its carrier rows not removed and their blocks' rows),
    so a disjoint cover sums to the ``owned=None`` walk's counts."""
    graph, disease, health, owned_masks, removed = cover
    fn = ckernel.block_walk if walk == "c" else production._numpy_walk

    def counts(owned):
        rows, bptr, walk_rows = fn(graph, health, disease, owned, removed)
        return np.array([walk_rows, rows.size, bptr.size - 1])

    assert (sum(counts(owned) for owned in owned_masks) == counts(None)).all()
