"""Synthetic person–location populations.

EpiSimdemics consumes bipartite *person–location* graphs whose edges are
timed visits (Section II-A of the paper).  The originals are proprietary
census-derived populations; this package generates synthetic equivalents
that match the statistics the paper reports:

* mean person degree ≈ 5.5 visits/day with σ ≈ 2.6,
* mean location degree ≈ 21.5 visits/day,
* heavy-tailed (power-law) location in-degree distribution,
* locations composed of sublocations (rooms/classrooms/floors) that
  carry the splittable parallelism exploited by ``splitLoc``.

Two generation paths share one graph type:

* :func:`generate_population` — the dense in-RAM generator (reference
  semantics; golden traces depend on it);
* :func:`generate_population_streamed` — block-streamed generation into
  a :class:`PopulationBacking` (RAM or ``np.memmap``), bounded memory
  at any population size.  See ``docs/scaling.md``.

One on-disk format, a directory of ``.npy`` columns
(:func:`save_population` / :func:`load_population`), serves both.
The person–person contact network these visits imply is projected
once, by :func:`repro.baselines.project_contact_graph`.

See DESIGN.md §2 for why matching these distributions preserves the
paper's scaling phenomena.
"""

from repro.synthpop.graph import PersonLocationGraph, LocationType
from repro.synthpop.powerlaw import bounded_zipf_sample, pareto_attractiveness
from repro.synthpop.generator import PopulationConfig, generate_population
from repro.synthpop.states import (
    STATE_PRESETS,
    StatePreset,
    state_population,
    synthetic_state_sweep,
)
from repro.synthpop.store import PopulationBacking, load_population, save_population
from repro.synthpop.stream import generate_population_streamed

__all__ = [
    "PersonLocationGraph",
    "LocationType",
    "PopulationConfig",
    "generate_population",
    "generate_population_streamed",
    "PopulationBacking",
    "save_population",
    "load_population",
    "STATE_PRESETS",
    "StatePreset",
    "state_population",
    "synthetic_state_sweep",
    "bounded_zipf_sample",
    "pareto_attractiveness",
]
