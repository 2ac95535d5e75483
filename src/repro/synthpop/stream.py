"""Streaming, memory-bounded population generation.

The dense generator (:func:`~repro.synthpop.generator.
generate_population`) draws every per-visit array for the whole
population at once — O(n_visits) RAM several times over, which caps it
around a few million persons.  This module generates the *same family*
of populations block-by-block, writing straight into a
:class:`~repro.synthpop.store.PopulationBacking` (RAM for small runs,
``np.memmap`` files for large ones), so peak RAM is

    O(n_locations)  location-side tables (attractiveness CDFs and their
                    guide tables, pools)
  + O(block)        one person block's working set
  + ~2 B/person     the layout kept from pass 1 to pass 2: each
                    person's degree and household slot, one byte each
                    at the default config
  + ~1.6 KB/block   each block's post-skeleton ``Generator`` (0.2
                    B/person at the default 8192-person block)

and nothing per visit: every visit column goes straight to the backing
— the NiemaGraphGen playbook applied to the paper's Table-I scales (the
US row is 280M persons; a laptop-class box streams ≥10M, see
``benchmarks/bench_synthpop_scale.py``).

Determinism contract (pinned by ``tests/synthpop/test_stream.py``):

* every person block ``b`` draws from its own keyed stream
  ``RngFactory(seed).stream(SYNTHPOP, _K_PERSON_BLOCK, b)`` and the
  location side from ``(SYNTHPOP, _K_LOCATION)``, so content depends
  only on ``(seed, config, block_persons)``;
* ``backing`` (RAM vs memmap) is a pure *execution* knob — either
  yields bit-identical populations, which is why
  :class:`~repro.spec.PopulationSpec` excludes it from its content
  hash.

Generation is two-phase, and each block's draws are made once.  Pass 1
draws each block's skeleton (ages, degrees, households), writes ages
and global homes straight into the backing's person columns, and keeps
the block's degrees, household slots and ``Generator`` — the latter
where the skeleton left it — to learn exact visit/building counts and
lay out global offsets.  Pass 2 continues each block's ``Generator``
with the visit bodies and writes the block's visit columns to their
slot as soon as they are drawn.  Locations are sized from pass-1 totals
exactly like the dense generator; activity sublocation counts use
*expected* per-location visit loads (deterministic given the
attractiveness CDF), which is what removes the dense path's global
realised-count pass.

No visit column is sorted and no draw binary-searches: a block's visits
go straight to their rows of the ``(person, start)`` order
(:func:`~repro.synthpop.generator._person_major`), and each destination
draw is one uniform answered through a
:class:`~repro.synthpop.guide.GuideTable` over the pool's CDF.
"""

from __future__ import annotations

import numpy as np

from repro import observe
from repro.synthpop.generator import (
    PopulationConfig,
    _DAY_END_ACTIVITY,
    _DAY_START_ACTIVITY,
    _person_major,
    _place,
    _sample_ages,
    _sample_person_degrees,
)
from repro.synthpop.graph import LocationType, MINUTES_PER_DAY, PersonLocationGraph
from repro.synthpop.guide import GuideTable, check_weights
from repro.synthpop.powerlaw import pareto_attractiveness
from repro.synthpop.store import PopulationBacking
from repro.util.rng import RngFactory

__all__ = ["generate_population_streamed", "DEFAULT_BLOCK_PERSONS"]

#: Default person-block granularity.  Content-affecting (each block has
#: its own keyed RNG stream), so it is part of the population spec.
DEFAULT_BLOCK_PERSONS = 8192

#: Populations at or above this size default to memmap backing.
AUTO_MEMMAP_PERSONS = 1_000_000

# RNG sub-keys under the SYNTHPOP prefix.  The dense generator uses the
# bare single-key stream (SYNTHPOP,), so these never collide with it.
_K_PERSON_BLOCK = 1
_K_LOCATION = 2

_ACT_SPAN = _DAY_END_ACTIVITY - _DAY_START_ACTIVITY


def _block_skeleton(rng: np.random.Generator, cfg: PopulationConfig, nb: int):
    """A block's first draws, in fixed order: ages, degrees and the
    block-local household/building structure.

    Returns ``(ages, degrees, person_building_local, person_slot,
    building_hh_counts)``.  Pass 1 makes these draws once; pass 2
    continues the same ``rng`` from where they leave it.
    """
    ages = _sample_ages(rng, nb)
    degrees = _sample_person_degrees(rng, cfg, nb)

    mean_hh = cfg.household_size_mean
    est = int(nb / max(mean_hh - 0.5, 1.0)) + 8
    sizes = 1 + rng.poisson(mean_hh - 1.0, size=est)
    while sizes.sum() < nb:
        sizes = np.concatenate([sizes, 1 + rng.poisson(mean_hh - 1.0, size=est)])
    cum = np.cumsum(sizes)
    n_households = int(np.searchsorted(cum, nb) + 1)
    sizes = sizes[:n_households]
    sizes[-1] -= cum[n_households - 1] - nb
    if sizes[-1] <= 0:  # pragma: no cover - defensive; searchsorted precludes it
        sizes[-1] = 1
    person_household = np.repeat(np.arange(n_households), sizes)[:nb]

    hh_per_building = max(1, int(round(cfg.building_size_mean / mean_hh)))
    building_of_household = np.arange(n_households) // hh_per_building
    household_slot = np.arange(n_households) % hh_per_building
    n_buildings = int(building_of_household.max()) + 1
    building_hh_counts = np.bincount(building_of_household, minlength=n_buildings)

    return (
        ages,
        degrees,
        building_of_household[person_household],
        household_slot[person_household].astype(np.int32),
        building_hh_counts.astype(np.int32),
    )


class _WeightedPool:
    """A location subset with its attractiveness CDF: one uniform per
    draw, answered through a :class:`~repro.synthpop.guide.GuideTable`
    (no per-draw O(n_locations) work, no binary search)."""

    __slots__ = ("ids", "table")

    def __init__(self, ids: np.ndarray, attract: np.ndarray):
        self.ids = ids
        w = attract[ids].astype(np.float64)
        check_weights(w)
        cdf = np.cumsum(w)
        cdf /= cdf[-1]
        cdf[-1] = 1.0
        self.table = GuideTable(cdf)

    def draw(self, u: np.ndarray) -> np.ndarray:
        return self.ids[self.table.search(u)]


def _narrow(a: np.ndarray) -> np.ndarray:
    """``a`` in the narrowest integer dtype that holds both its smallest
    and its largest value (``uint8`` for degrees and slots at the
    default config)."""
    lo, hi = int(a.min()), int(a.max())
    return a.astype(np.result_type(np.min_scalar_type(lo), np.min_scalar_type(hi)))


def generate_population_streamed(
    cfg: PopulationConfig,
    rng_factory: RngFactory | int = 0,
    *,
    backing: str = "auto",
    block_persons: int = DEFAULT_BLOCK_PERSONS,
    dir=None,
    name: str = "streamed",
) -> PersonLocationGraph:
    """Generate a population block-by-block into a bounded-memory backing.

    Parameters
    ----------
    cfg:
        Population parameters (same knobs as the dense generator).
    rng_factory:
        Root seed or :class:`~repro.util.rng.RngFactory`.
    backing:
        ``"ram"``, ``"memmap"``, or ``"auto"`` (memmap at ≥ 1M
        persons).  Content is bit-identical across backings.
    block_persons:
        Persons per generation block — the RNG keying granularity.
        Content-*affecting*: part of the population's identity.
    dir:
        Parent directory for memmap files (default ``$REPRO_POP_DIR``
        or the system temp dir).
    name:
        Dataset label.

    >>> g = generate_population_streamed(
    ...     PopulationConfig(n_persons=100), 3, block_persons=32)
    >>> g.n_persons, bool((g.person_degrees >= 2).all())
    (100, True)
    >>> g2 = generate_population_streamed(
    ...     PopulationConfig(n_persons=100), 3, block_persons=32,
    ...     backing="memmap")
    >>> g2.content_hash() == g.content_hash()
    True
    """
    if isinstance(rng_factory, (int, np.integer)):
        rng_factory = RngFactory(int(rng_factory))
    if backing not in ("ram", "memmap", "auto"):
        raise ValueError(f"backing must be ram/memmap/auto, got {backing!r}")
    if block_persons < 1:
        raise ValueError("block_persons must be >= 1")
    n = cfg.n_persons
    if backing == "auto":
        backing = "memmap" if n >= AUTO_MEMMAP_PERSONS else "ram"

    obs = observe.span(
        "synthpop.generate_streamed", persons=n, backing=backing,
        block=block_persons,
    )
    with obs:
        graph = _generate(cfg, rng_factory, backing, block_persons, dir, name)
        obs.set(visits=int(graph.n_visits), locations=int(graph.n_locations))
        return graph


def _generate(cfg, factory, backing_kind, block_persons, dir, name):
    store = PopulationBacking.create(backing_kind, dir=dir)
    try:
        graph = _fill(store, cfg, factory, block_persons, name)
        graph.validate()
        return graph
    except Exception:
        store.close()
        raise


def _fill(store, cfg, factory, block_persons, name):
    n = cfg.n_persons
    n_blocks = (n + block_persons - 1) // block_persons
    p_age = store.allocate("person_age", (n,), np.int16)
    p_home = store.allocate("person_home", (n,), np.int64)

    # --- pass 1: per-block skeletons -> exact global layout ---------------
    # Each block's draws are made once: ages and global homes go to the
    # backing, its degrees and household slots stay (narrowed), and its
    # Generator stays where the skeleton left it for pass 2 to continue.
    kept: list[tuple[np.random.Generator, np.ndarray, np.ndarray]] = []
    block_visits = np.zeros(n_blocks, dtype=np.int64)
    hh_counts_parts: list[np.ndarray] = []
    n_buildings = 0
    with observe.span("synthpop.stream_pass1", blocks=n_blocks):
        for b in range(n_blocks):
            lo, hi = b * block_persons, min(n, (b + 1) * block_persons)
            rng = factory.stream(RngFactory.SYNTHPOP, _K_PERSON_BLOCK, b)
            ages, degrees, pb_local, slot, hh_counts = _block_skeleton(rng, cfg, hi - lo)
            p_age[lo:hi] = ages
            p_home[lo:hi] = n_buildings + pb_local
            n_buildings += hh_counts.shape[0]
            block_visits[b] = degrees.sum()
            hh_counts_parts.append(hh_counts)
            kept.append((rng, _narrow(degrees), _narrow(slot)))

    total_visits = int(block_visits.sum())
    visit_offset = np.zeros(n_blocks + 1, dtype=np.int64)
    np.cumsum(block_visits, out=visit_offset[1:])

    # --- location side (O(n_locations), independent of person count) ------
    target_locations = max(
        n_buildings + 1, int(round(total_visits / cfg.location_degree_mean))
    )
    n_activity = max(1, target_locations - n_buildings)
    n_locations = n_buildings + n_activity
    rng_loc = factory.stream(RngFactory.SYNTHPOP, _K_LOCATION)
    attract = pareto_attractiveness(
        rng_loc, n_activity, beta=cfg.attractiveness_beta,
        x_min=1.0, x_max=cfg.attractiveness_max_ratio,
    )
    frac_work, frac_school, frac_shop, frac_other = cfg.type_fractions
    act_type = rng_loc.choice(
        np.array(
            [LocationType.WORK, LocationType.SCHOOL, LocationType.SHOP,
             LocationType.OTHER],
            dtype=np.int8,
        ),
        size=n_activity,
        p=[frac_work, frac_school, frac_shop, frac_other],
    )
    R = cfg.n_regions
    act_region = (np.arange(n_activity, dtype=np.int64) * R) // n_activity

    global_pool = _WeightedPool(np.arange(n_activity, dtype=np.int64), attract)
    region_pools: list[_WeightedPool | None] = [None] * R
    if R > 1:
        for r in range(R):
            ids = np.flatnonzero(act_region == r)
            region_pools[r] = _WeightedPool(ids, attract) if ids.size else None
    # Anchor pools: children -> SCHOOL, working-age adults -> WORK,
    # preferring the person's home region (dense-generator semantics).
    anchor_pools: dict[int, tuple] = {}
    for lt in (int(LocationType.SCHOOL), int(LocationType.WORK)):
        type_ids = np.flatnonzero(act_type == lt)
        if type_ids.size == 0:
            anchor_pools[lt] = (None, [None] * R)
            continue
        whole = _WeightedPool(type_ids, attract)
        per_region: list[_WeightedPool | None] = [None] * R
        if R > 1:
            for r in range(R):
                sub = type_ids[act_region[type_ids] == r]
                per_region[r] = _WeightedPool(sub, attract) if sub.size else whole
        anchor_pools[lt] = (whole, per_region)

    # Expected activity load per location -> sublocation counts (the
    # deterministic stand-in for the dense path's realised bincount).
    total_act_visits = max(0, total_visits - 2 * n)
    probs = attract / attract.sum()
    act_n_sublocs = np.maximum(
        1, np.ceil(total_act_visits * probs / cfg.subloc_capacity)
    ).astype(np.int32)

    # --- allocate the rest of the backing ---------------------------------
    v_person = store.allocate("visit_person", (total_visits,), np.int64)
    v_location = store.allocate("visit_location", (total_visits,), np.int64)
    v_subloc = store.allocate("visit_subloc", (total_visits,), np.int32)
    v_start = store.allocate("visit_start", (total_visits,), np.int32)
    v_end = store.allocate("visit_end", (total_visits,), np.int32)
    l_sublocs = store.allocate("location_n_sublocs", (n_locations,), np.int32)
    l_type = store.allocate("location_type", (n_locations,), np.int8)
    p_region = l_region = None
    if R > 1:
        p_region = store.allocate("person_region", (n,), np.int32)
        l_region = store.allocate("location_region", (n_locations,), np.int32)

    hh_all = np.concatenate(hh_counts_parts) if hh_counts_parts else np.empty(0, np.int32)
    l_sublocs[:n_buildings] = np.maximum(hh_all, 1)
    l_sublocs[n_buildings:] = act_n_sublocs
    l_type[:n_buildings] = LocationType.HOME
    l_type[n_buildings:] = act_type
    building_region = (np.arange(n_buildings, dtype=np.int64) * R) // max(
        n_buildings, 1
    )
    if R > 1:
        l_region[:n_buildings] = building_region
        l_region[n_buildings:] = act_region

    # --- pass 2: each block's visits, written to their slot once ----------
    visit_cols = (v_person, v_location, v_subloc, v_start, v_end)
    with observe.span("synthpop.stream_pass2", blocks=n_blocks):
        for b, (rng, degrees, slot) in enumerate(kept):
            lo, hi = b * block_persons, min(n, (b + 1) * block_persons)
            at, to = int(visit_offset[b]), int(visit_offset[b + 1])
            cols = _generate_block(
                rng, cfg, lo, hi, degrees.astype(np.int64), slot,
                n_buildings=n_buildings,
                building_region=building_region,
                global_pool=global_pool,
                region_pools=region_pools,
                anchor_pools=anchor_pools,
                act_n_sublocs=act_n_sublocs,
                p_age=p_age, p_home=p_home, p_region=p_region,
            )
            for col, values in zip(visit_cols, cols):
                col[at:to] = values

    return PersonLocationGraph(
        name=name,
        n_persons=n,
        n_locations=n_locations,
        visit_person=v_person,
        visit_location=v_location,
        visit_subloc=v_subloc,
        visit_start=v_start,
        visit_end=v_end,
        location_n_sublocs=l_sublocs,
        location_type=l_type,
        person_age=p_age,
        person_home=p_home,
        person_region=p_region,
        location_region=l_region,
        backing=store,
    )


def _generate_block(
    rng, cfg, lo, hi, degrees, person_slot, *,
    n_buildings, building_region,
    global_pool, region_pools, anchor_pools, act_n_sublocs,
    p_age, p_home, p_region,
) -> tuple[np.ndarray, ...]:
    """One block's five visit columns (person, location, subloc, start,
    end; in person, start order) + its person-region fill.

    ``rng`` is the block's Generator where :func:`_block_skeleton` left
    it, and ``degrees`` / ``person_slot`` are that skeleton's; ages and
    homes are read back from ``p_age`` / ``p_home``.  Draw order after
    the skeleton is fixed and documented here; RAM/memmap bit-exactness
    rests on every draw being keyed to the block, not to global
    position.
    """
    nb = hi - lo
    R = cfg.n_regions
    ages = p_age[lo:hi]
    person_building = p_home[lo:hi]  # global building ids
    person_region = building_region[person_building].astype(np.int64)
    if p_region is not None:
        p_region[lo:hi] = person_region

    # --- activity visits ---------------------------------------------------
    k_act = degrees - 2
    n_act = int(k_act.sum())
    persons_local = np.arange(nb, dtype=np.int64)
    visit_person_act = np.repeat(persons_local, k_act)
    starts_of_person = np.concatenate([[0], np.cumsum(k_act)])[:-1]
    covered = k_act > 0
    k_covered = k_act[covered]
    # Each covered person's first activity visit, in ascending order.
    anchor = starts_of_person[covered]
    anchor_ages = ages[covered]

    # Draw order: dest, [locality, redraw], anchor, gamma weights,
    # morning jitter, evening jitter, subloc.
    u_dest = rng.random(n_act)
    dest = global_pool.draw(u_dest) if n_act else np.empty(0, dtype=np.int64)
    if R > 1 and n_act:
        is_local = rng.random(n_act) < cfg.region_locality
        u_redraw = rng.random(n_act)
        visit_region = person_region[visit_person_act]
        for r in range(R):
            pool = region_pools[r]
            if pool is None:
                continue
            mask = is_local & (visit_region == r)
            if mask.any():
                dest[mask] = pool.draw(u_redraw[mask])
    u_anchor = rng.random(n_act)
    for lt, rows in (
        (int(LocationType.SCHOOL), anchor[(anchor_ages >= 5) & (anchor_ages < 18)]),
        (int(LocationType.WORK), anchor[(anchor_ages >= 18) & (anchor_ages < 65)]),
    ):
        whole, per_region = anchor_pools[lt]
        if whole is None or not rows.size:
            continue
        if R > 1:
            rows_region = person_region[visit_person_act[rows]]
            for r in range(R):
                sel = rows[rows_region == r]
                if sel.size:
                    dest[sel] = (per_region[r] or whole).draw(u_anchor[sel])
        else:
            dest[rows] = whole.draw(u_anchor[rows])
    visit_location_act = dest + n_buildings

    # Activity times: Dirichlet-like slot partition of [08:00, 18:00).
    w = rng.gamma(2.0, 1.0, size=n_act)
    w[anchor] *= 6.0
    start_frac = np.empty(n_act)
    end_frac = np.empty(n_act)
    if n_act:
        sums = np.bincount(visit_person_act, weights=w, minlength=nb)
        cum = np.cumsum(w)
        cum_excl = cum - w
        base = np.repeat(cum_excl[anchor], k_covered)
        denom = np.repeat(sums[covered], k_covered)
        start_frac = (cum_excl - base) / denom
        end_frac = (cum - base) / denom
    start_act = (_DAY_START_ACTIVITY + start_frac * _ACT_SPAN).astype(np.int32)
    end_act = (_DAY_START_ACTIVITY + end_frac * _ACT_SPAN).astype(np.int32)
    end_act = np.maximum(end_act, start_act + 1)
    end_act = np.minimum(end_act, _DAY_END_ACTIVITY)
    start_act = np.minimum(start_act, end_act - 1)

    # --- home visits -------------------------------------------------------
    morning_start = np.zeros(nb, dtype=np.int32)
    morning_end = np.full(nb, _DAY_START_ACTIVITY - 10, dtype=np.int32) + rng.integers(
        -60, 10, size=nb, dtype=np.int32
    )
    morning_end = np.clip(morning_end, 60, _DAY_START_ACTIVITY)
    evening_start = np.full(nb, _DAY_END_ACTIVITY + 10, dtype=np.int32) + rng.integers(
        -10, 120, size=nb, dtype=np.int32
    )
    evening_start = np.clip(evening_start, _DAY_END_ACTIVITY, MINUTES_PER_DAY - 60)
    evening_end = np.full(nb, MINUTES_PER_DAY, dtype=np.int32)

    u_sub = rng.random(n_act)
    subloc_act = (u_sub * act_n_sublocs[dest]).astype(np.int32)

    # --- assemble: each piece straight to its row, no sort ------------------
    rows = _person_major(degrees, visit_person_act, start_act)
    return (
        np.repeat(np.arange(lo, hi, dtype=np.int64), degrees),
        _place(rows, person_building, visit_location_act, person_building, np.int64),
        _place(rows, person_slot, subloc_act, person_slot, np.int32),
        _place(rows, morning_start, start_act, evening_start, np.int32),
        _place(rows, morning_end, end_act, evening_end, np.int32),
    )
