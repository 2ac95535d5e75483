"""Synthetic population generator.

Produces :class:`~repro.synthpop.graph.PersonLocationGraph` instances
whose degree statistics match what the paper reports for the
census-derived populations (person degree ≈ 5.5 ± 2.6, location degree
≈ 21.5, heavy-tailed location in-degree).  See DESIGN.md §2 for the
substitution argument.

Structure of a generated day:

* every person makes a **morning home visit** and an **evening home
  visit** to their home *building* (buildings aggregate ~2 households;
  households are the building's sublocations — this reproduces Table I's
  locations-per-person ratio of ≈ 0.256 while keeping household mixing);
* remaining visits are **activity visits** during 08:00–18:00, routed to
  activity locations with probability proportional to a Pareto-drawn
  attractiveness (this produces the power-law visit-count tail);
* children's primary activity is a SCHOOL location, working-age adults'
  a WORK location; both get long anchor visits, secondary visits are
  short SHOP/OTHER errands;
* activity locations are carved into sublocations of roughly
  ``subloc_capacity`` expected visits each — the splittable units that
  ``splitLoc`` (paper §III-C) exploits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import observe
from repro.synthpop.graph import LocationType, PersonLocationGraph, MINUTES_PER_DAY
from repro.synthpop.guide import GuideTable, check_weights
from repro.synthpop.powerlaw import pareto_attractiveness
from repro.util.rng import RngFactory

__all__ = ["PopulationConfig", "generate_population"]

_DAY_START_ACTIVITY = 8 * 60  # 08:00
_DAY_END_ACTIVITY = 18 * 60  # 18:00


@dataclass(frozen=True)
class PopulationConfig:
    """Knobs for :func:`generate_population`.

    Defaults reproduce the paper's reported statistics; tests pin the
    resulting moments (see ``tests/synthpop/test_generator.py``).

    >>> PopulationConfig(n_persons=100).mean_visits
    5.5
    """

    n_persons: int
    #: Mean / std of visits per person per day (paper: 5.5, σ=2.6).
    mean_visits: float = 5.5
    std_visits: float = 2.6
    #: Target mean visits per location (paper: 21.5).
    location_degree_mean: float = 21.5
    #: Tail exponent of activity-location attractiveness.
    attractiveness_beta: float = 2.0
    #: Cap on attractiveness ratio between largest and smallest location.
    attractiveness_max_ratio: float = 50_000.0
    #: Mean persons per home *building* (≈ two households).
    building_size_mean: float = 5.0
    #: Mean persons per household (sublocation of a home building).
    household_size_mean: float = 2.5
    #: Expected visits handled per activity sublocation.
    subloc_capacity: float = 25.0
    #: Fractions of activity locations by type (WORK, SCHOOL, SHOP, OTHER).
    type_fractions: tuple[float, float, float, float] = (0.40, 0.05, 0.30, 0.25)
    #: Geographic regions (counties).  1 disables regional structure;
    #: with more, ``region_locality`` of each person's activity visits
    #: stay inside their home region — the community structure that
    #: gives graph partitioning its locality (paper §III-B) and makes
    #: the epidemic spread as a spatial wave.
    n_regions: int = 1
    region_locality: float = 0.9

    def __post_init__(self) -> None:
        if self.n_persons < 1:
            raise ValueError("need at least one person")
        if not (self.mean_visits > 2.0):
            raise ValueError("mean_visits must exceed 2 (two home visits are fixed)")
        if abs(sum(self.type_fractions) - 1.0) > 1e-9:
            raise ValueError("type_fractions must sum to 1")
        if self.n_regions < 1:
            raise ValueError("n_regions must be >= 1")
        if not (0.0 <= self.region_locality <= 1.0):
            raise ValueError("region_locality must be in [0, 1]")


@observe.traced("synthpop.sample_degrees")
def _sample_person_degrees(
    rng: np.random.Generator, cfg: PopulationConfig, n: int | None = None
) -> np.ndarray:
    """Visits per person: 2 home visits + negative-binomial activity visits.

    NB parameters chosen so the *total* degree matches (mean, std); the
    NB requires var > mean which holds for the paper's (5.5, 2.6).
    ``n`` overrides the draw count (the streaming generator samples one
    fixed-size person block at a time).
    """
    n = cfg.n_persons if n is None else n
    m = cfg.mean_visits - 2.0
    var = cfg.std_visits**2
    if var <= m:
        # Fall back to Poisson when the requested dispersion is too tight.
        k = rng.poisson(m, size=n)
    else:
        r = m * m / (var - m)
        p = r / (r + m)
        k = rng.negative_binomial(r, p, size=n)
    return (k + 2).astype(np.int64)


@observe.traced("synthpop.sample_ages")
def _sample_ages(rng: np.random.Generator, n: int) -> np.ndarray:
    """Rough US age pyramid: 0–4 (7%), 5–17 (17%), 18–64 (63%), 65+ (13%)."""
    u = rng.random(n)
    age = np.empty(n, dtype=np.int16)
    band0 = u < 0.07
    band1 = (u >= 0.07) & (u < 0.24)
    band2 = (u >= 0.24) & (u < 0.87)
    band3 = u >= 0.87
    age[band0] = rng.integers(0, 5, size=int(band0.sum()))
    age[band1] = rng.integers(5, 18, size=int(band1.sum()))
    age[band2] = rng.integers(18, 65, size=int(band2.sum()))
    age[band3] = rng.integers(65, 95, size=int(band3.sum()))
    return age


@observe.traced("synthpop.assign_households")
def _assign_households(
    rng: np.random.Generator, cfg: PopulationConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group persons into households and households into home buildings.

    Returns ``(person_home_building, person_household_in_building,
    building_n_households)``.
    """
    n = cfg.n_persons
    # Draw household sizes until they cover the population, then trim.
    mean_hh = cfg.household_size_mean
    est = int(n / max(mean_hh - 0.5, 1.0)) + 8
    sizes = 1 + rng.poisson(mean_hh - 1.0, size=est)
    while sizes.sum() < n:
        sizes = np.concatenate([sizes, 1 + rng.poisson(mean_hh - 1.0, size=est)])
    cum = np.cumsum(sizes)
    n_households = int(np.searchsorted(cum, n) + 1)
    sizes = sizes[:n_households]
    sizes[-1] -= cum[n_households - 1] - n
    if sizes[-1] <= 0:  # pragma: no cover - defensive; searchsorted precludes it
        sizes[-1] = 1
    person_household = np.repeat(np.arange(n_households), sizes)[:n]

    hh_per_building = max(1, int(round(cfg.building_size_mean / mean_hh)))
    building_of_household = np.arange(n_households) // hh_per_building
    n_buildings = int(building_of_household.max()) + 1
    household_slot = np.arange(n_households) % hh_per_building
    building_n_households = np.bincount(building_of_household, minlength=n_buildings)

    person_building = building_of_household[person_household]
    person_slot = household_slot[person_household]
    return person_building, person_slot, building_n_households


def _choice(
    rng: np.random.Generator, ids: np.ndarray, attract: np.ndarray, size: int
) -> np.ndarray:
    """``rng.choice(ids, size, p=attract[ids] / attract[ids].sum())``, bit
    for bit: the same uniforms and numpy's own CDF (``cumsum``, then
    ``/= cdf[-1]``), searched through a guide table instead of a binary
    search."""
    w = attract[ids]
    check_weights(w)
    cdf = (w / w.sum()).cumsum()
    cdf /= cdf[-1]
    return ids[GuideTable(cdf).search(rng.random(size))]


def _person_major(
    degrees: np.ndarray, act_person: np.ndarray, act_start: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows of the morning home visits, the activity visits and the
    evening home visits in the ``lexsort((start, person))`` order, found
    without a sort: ``(first, act_rows, last)``.

    Person ``p``'s visits fill rows ``first[p]..last[p]``: the morning
    visit (start 0), the activity visits (starts in [479, 1080)), the
    evening visit (start >= 1080).  The activity starts are prefix sums
    of positive weights, so they do not decrease with the ordinal and
    the stable sort keeps them in ordinal order: row ``j + 2p + 1`` for
    activity visit ``j`` (``act_person`` non-decreasing).  Should
    rounding ever make a person's starts descend, that person's
    activity visits take the rows a stable sort gives them.
    """
    last = np.cumsum(degrees) - 1
    first = last - (degrees - 1)
    act_rows = np.arange(act_person.shape[0], dtype=np.int64) + 2 * act_person + 1
    descents = (act_start[1:] < act_start[:-1]) & (act_person[1:] == act_person[:-1])
    if descents.any():
        act_rows[np.lexsort((act_start, act_person))] = act_rows.copy()
    return first, act_rows, last


def _place(rows, morning, act, evening, dtype) -> np.ndarray:
    """One visit column from its three pieces, each scattered to its
    rows (:func:`_person_major`)."""
    first, act_rows, last = rows
    out = np.empty(last[-1] + 1, dtype=dtype)
    out[first] = morning
    out[act_rows] = act
    out[last] = evening
    return out


def generate_population(
    cfg: PopulationConfig,
    rng_factory: RngFactory | int = 0,
    name: str = "synthetic",
) -> PersonLocationGraph:
    """Generate one normative day of visits for a synthetic population.

    Parameters
    ----------
    cfg:
        Population parameters.
    rng_factory:
        An :class:`~repro.util.rng.RngFactory` or a bare integer seed.
    name:
        Dataset label carried on the resulting graph.

    >>> g = generate_population(PopulationConfig(n_persons=60), 0)
    >>> g.n_persons, g.n_visits >= 3 * 60
    (60, True)
    """
    obs_span = observe.span("synthpop.generate", persons=cfg.n_persons)
    with obs_span:
        graph = _generate_population(cfg, rng_factory, name)
        obs_span.set(visits=int(graph.n_visits), locations=int(graph.n_locations))
        return graph


def _generate_population(
    cfg: PopulationConfig,
    rng_factory: RngFactory | int,
    name: str,
) -> PersonLocationGraph:
    if isinstance(rng_factory, (int, np.integer)):
        rng_factory = RngFactory(int(rng_factory))
    rng = rng_factory.stream(RngFactory.SYNTHPOP)

    n = cfg.n_persons
    ages = _sample_ages(rng, n)
    degrees = _sample_person_degrees(rng, cfg)
    person_building, person_slot, building_n_households = _assign_households(rng, cfg)
    n_buildings = building_n_households.shape[0]

    # --- activity locations -------------------------------------------------
    total_visits = int(degrees.sum())
    target_locations = max(n_buildings + 1, int(round(total_visits / cfg.location_degree_mean)))
    n_activity = max(1, target_locations - n_buildings)
    attract = pareto_attractiveness(
        rng,
        n_activity,
        beta=cfg.attractiveness_beta,
        x_min=1.0,
        x_max=cfg.attractiveness_max_ratio,
    )
    # Location ids: buildings first [0, n_buildings), then activity locations.
    n_locations = n_buildings + n_activity
    loc_type = np.full(n_locations, LocationType.HOME, dtype=np.int8)
    frac_work, frac_school, frac_shop, frac_other = cfg.type_fractions
    act_type = rng.choice(
        np.array(
            [LocationType.WORK, LocationType.SCHOOL, LocationType.SHOP, LocationType.OTHER],
            dtype=np.int8,
        ),
        size=n_activity,
        p=[frac_work, frac_school, frac_shop, frac_other],
    )
    loc_type[n_buildings:] = act_type

    # --- route activity visits ---------------------------------------------
    k_act = degrees - 2  # activity visits per person
    n_act_visits = int(k_act.sum())
    visit_person_act = np.repeat(np.arange(n, dtype=np.int64), k_act)

    # Visit ordinal within the person (0 = anchor visit).
    starts_of_person = np.concatenate([[0], np.cumsum(k_act)])[:-1]
    ordinal = np.arange(n_act_visits) - np.repeat(starts_of_person, k_act)

    is_child = (ages[visit_person_act] >= 5) & (ages[visit_person_act] < 18)
    is_worker = (ages[visit_person_act] >= 18) & (ages[visit_person_act] < 65)
    anchor = ordinal == 0

    # Regional structure: buildings in contiguous blocks, activity
    # locations spread round-robin so each region gets its share of the
    # attractiveness distribution.
    n_regions = cfg.n_regions
    building_region = (np.arange(n_buildings, dtype=np.int64) * n_regions) // max(
        n_buildings, 1
    )
    act_region = (np.arange(n_activity, dtype=np.int64) * n_regions) // n_activity
    person_region = building_region[person_building]

    dest = _choice(rng, np.arange(n_activity), attract, n_act_visits)
    if n_regions > 1 and n_act_visits:
        # Local visits redraw inside the person's home region.
        is_local = rng.random(n_act_visits) < cfg.region_locality
        visit_region = person_region[visit_person_act]
        for r in range(n_regions):
            mask = is_local & (visit_region == r)
            cnt = int(mask.sum())
            if cnt == 0:
                continue
            pool = np.flatnonzero(act_region == r)
            if pool.size == 0:
                continue
            dest[mask] = _choice(rng, pool, attract, cnt)

    # Redirect anchor visits of children to schools and workers to
    # workplaces (weighted within their type pool, preferring the home
    # region) so SCHOOL/WORK carry the anchor load.
    for mask, lt in ((anchor & is_child, LocationType.SCHOOL), (anchor & is_worker, LocationType.WORK)):
        type_pool = np.flatnonzero(act_type == lt)
        if type_pool.size == 0:
            continue
        if n_regions > 1:
            visit_region = person_region[visit_person_act]
            for r in range(n_regions):
                sub = mask & (visit_region == r)
                cnt = int(sub.sum())
                if cnt == 0:
                    continue
                pool = type_pool[act_region[type_pool] == r]
                if pool.size == 0:
                    pool = type_pool
                dest[sub] = _choice(rng, pool, attract, cnt)
        else:
            cnt = int(mask.sum())
            if cnt == 0:
                continue
            dest[mask] = _choice(rng, type_pool, attract, cnt)
    visit_location_act = (dest + n_buildings).astype(np.int64)

    # --- activity visit times -----------------------------------------------
    # Partition [08:00, 18:00] per person into k consecutive slots using
    # Dirichlet-like gamma weights; the anchor slot gets a 6x weight so
    # school/work dominate the day.
    span = _DAY_END_ACTIVITY - _DAY_START_ACTIVITY
    w = rng.gamma(2.0, 1.0, size=n_act_visits)
    w[anchor] *= 6.0
    sums = np.bincount(visit_person_act, weights=w, minlength=n)
    # Exclusive prefix sum within each person's segment.
    cum = np.cumsum(w)
    start_frac = np.empty(n_act_visits)
    end_frac = np.empty(n_act_visits)
    if n_act_visits:
        cum_excl = cum - w
        base = np.repeat(cum_excl[starts_of_person[k_act > 0]], k_act[k_act > 0])
        denom = np.repeat(sums[k_act > 0], k_act[k_act > 0])
        start_frac = (cum_excl - base) / denom
        end_frac = (cum - base) / denom
    visit_start_act = (_DAY_START_ACTIVITY + start_frac * span).astype(np.int32)
    visit_end_act = (_DAY_START_ACTIVITY + end_frac * span).astype(np.int32)
    visit_end_act = np.maximum(visit_end_act, visit_start_act + 1)
    visit_end_act = np.minimum(visit_end_act, _DAY_END_ACTIVITY)
    visit_start_act = np.minimum(visit_start_act, visit_end_act - 1)

    # --- home visits ---------------------------------------------------------
    morning_start = np.zeros(n, dtype=np.int32)
    morning_end = np.full(n, _DAY_START_ACTIVITY - 10, dtype=np.int32) + rng.integers(
        -60, 10, size=n, dtype=np.int32
    )
    morning_end = np.clip(morning_end, 60, _DAY_START_ACTIVITY)
    evening_start = np.full(n, _DAY_END_ACTIVITY + 10, dtype=np.int32) + rng.integers(
        -10, 120, size=n, dtype=np.int32
    )
    evening_start = np.clip(evening_start, _DAY_END_ACTIVITY, MINUTES_PER_DAY - 60)
    evening_end = np.full(n, MINUTES_PER_DAY, dtype=np.int32)

    # --- sublocations ---------------------------------------------------------
    act_counts = np.bincount(visit_location_act - n_buildings, minlength=n_activity)
    act_n_sublocs = np.maximum(1, np.ceil(act_counts / cfg.subloc_capacity)).astype(np.int32)
    loc_n_sublocs = np.concatenate(
        [np.maximum(building_n_households, 1).astype(np.int32), act_n_sublocs]
    )
    subloc_act = (
        rng.random(n_act_visits) * act_n_sublocs[visit_location_act - n_buildings]
    ).astype(np.int32)

    # --- assemble -------------------------------------------------------------
    # Each piece goes straight to its row in the (person, start) order:
    # no concatenation, no sort (see _person_major).
    rows = _person_major(degrees, visit_person_act, visit_start_act)
    regions = None, None
    if cfg.n_regions > 1:
        regions = (
            person_region.astype(np.int32),
            np.concatenate([building_region, act_region]).astype(np.int32),
        )
    graph = PersonLocationGraph(
        name=name,
        n_persons=n,
        n_locations=n_locations,
        visit_person=np.repeat(np.arange(n, dtype=np.int64), degrees),
        visit_location=_place(rows, person_building, visit_location_act, person_building, np.int64),
        visit_subloc=_place(rows, person_slot, subloc_act, person_slot, np.int32),
        visit_start=_place(rows, morning_start, visit_start_act, evening_start, np.int32),
        visit_end=_place(rows, morning_end, visit_end_act, evening_end, np.int32),
        location_n_sublocs=loc_n_sublocs,
        location_type=loc_type,
        person_age=ages,
        person_home=person_building.astype(np.int64),
        person_region=regions[0],
        location_region=regions[1],
    )
    graph.validate()
    return graph
