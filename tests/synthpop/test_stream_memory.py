"""Streamed synthesis holds nothing per visit.

Each block's visit columns go from its working set straight to their
slot in the backing.  With a memmap backing the Python-heap peak of a
build (``tracemalloc`` sees numpy's allocations, not the mapped files)
therefore grows with the population only by the per-person layout kept
between the two passes, the location tables and ``graph.validate()``'s
own temporaries (about 5 B per visit) — never by a buffer of visit
columns, which costs about 28 B per visit it holds.
"""

from __future__ import annotations

import gc
import tracemalloc

from repro.synthpop import PopulationConfig, generate_population_streamed

#: Bound on the traced peak's growth per added visit.  Measured ≈ 0.5 B
#: between 40K and 160K persons; a 262,144-person flush buffer reads
#: ≈ 28 B over the same span.
MAX_BYTES_PER_VISIT = 8


def _traced_peak(n_persons: int) -> tuple[int, int]:
    gc.collect()
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        graph = generate_population_streamed(
            PopulationConfig(n_persons=n_persons), 5, backing="memmap"
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not was_tracing:
            tracemalloc.stop()
    return peak, graph.n_visits


def test_traced_peak_grows_by_less_than_a_visit_buffer():
    small_peak, small_visits = _traced_peak(40_000)
    big_peak, big_visits = _traced_peak(160_000)
    per_visit = (big_peak - small_peak) / (big_visits - small_visits)
    assert per_visit < MAX_BYTES_PER_VISIT, (
        f"traced peak grows {per_visit:.1f} B per visit "
        f"({small_peak} B at {small_visits} visits, {big_peak} B at {big_visits})"
    )
