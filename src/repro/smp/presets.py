"""Shared synthetic-population presets for SMP validation and benches.

One heavy-tailed builder serves the differential oracle's smp cells (the ``heavy`` preset of
:func:`repro.validate.oracle.run_smp_matrix`),
the scaling benchmark (``benchmarks/bench_smp_scaling.py``) and the
bit-exactness tests all stress the same splitLoc-motivating regime —
one location absorbing a large share of all visits is exactly where a
partitioned run is most likely to betray an order dependence, and
where the location phase is heavy enough for real scaling.
"""

from __future__ import annotations

import numpy as np

from repro.synthpop.graph import MINUTES_PER_DAY, PersonLocationGraph

__all__ = ["heavy_tailed_graph"]


def heavy_tailed_graph(
    n_persons: int = 8_000,
    n_locations: int = 1_200,
    visits_per_person: int = 3,
    seed: int = 7,
    zipf_exponent: float = 1.4,
) -> PersonLocationGraph:
    """Synthetic population with Zipf location popularity.

    Sublocation counts grow with popularity (big venues have many
    rooms, paper §III-C), so pair enumeration stays blocked while the
    visit distribution is extremely skewed.

    >>> g = heavy_tailed_graph(n_persons=100, n_locations=10)
    >>> g.n_visits
    300
    """
    rng = np.random.default_rng(seed)
    n_visits = n_persons * visits_per_person
    ranks = np.arange(1, n_locations + 1, dtype=np.float64)
    popularity = ranks ** -zipf_exponent
    popularity /= popularity.sum()
    person = np.repeat(np.arange(n_persons, dtype=np.int64), visits_per_person)
    location = rng.choice(n_locations, size=n_visits, p=popularity).astype(np.int64)
    n_sublocs = np.clip(popularity * n_visits / 40.0, 1, 64).astype(np.int64)
    subloc = (rng.integers(0, 1 << 30, n_visits) % n_sublocs[location]).astype(np.int64)
    start = rng.integers(0, MINUTES_PER_DAY - 60, n_visits).astype(np.int64)
    end = start + rng.integers(30, MINUTES_PER_DAY // 3, n_visits)
    end = np.minimum(end, MINUTES_PER_DAY).astype(np.int64)
    order = np.lexsort((start, person))
    g = PersonLocationGraph(
        name=f"heavy-tailed-{n_persons}",
        n_persons=n_persons,
        n_locations=n_locations,
        visit_person=person[order],
        visit_location=location[order],
        visit_subloc=subloc[order],
        visit_start=start[order],
        visit_end=end[order],
        location_n_sublocs=n_sublocs,
        location_type=np.zeros(n_locations, dtype=np.int64),
        person_age=rng.integers(1, 90, n_persons).astype(np.int64),
        person_home=rng.integers(0, n_locations, n_persons).astype(np.int64),
    )
    g.validate()
    return g
