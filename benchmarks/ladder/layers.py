"""Per-layer attribution, measured from outside the program.

One table (:data:`SHIMS`) names the public entry points of each layer.
The traced child wraps each with a timing shim — call count, seconds, a
size read off the arguments or the result, and (for the coarse ones) a
``repro.observe`` span, so shim spans and the spans the program already
emits (``sim.day``, ``exposure.compute``, ``spec.pop_build``,
``synthpop.stream_pass1/2``, ``partition.splitloc`` …) land in one
``Observer`` and self time falls out of ``Span.parent``.  Shims exist
only inside :func:`installed` and are removed on exit; forked smp / pool
workers are not traced (their numbers come from the public
``SmpResult`` / ``SweepReport`` fields).

:func:`derive` turns one traced run into the per-layer metrics that
``BENCHMARK.json`` names.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro import observe

__all__ = ["SHIMS", "Shim", "Tally", "installed", "derive"]


@dataclass(frozen=True)
class Shim:
    module: str
    #: ``name`` or ``Class.name`` inside ``module``
    attr: str
    #: tally key; also the span name
    key: str
    #: record a span per call — off where a call is made ~10^5 times a
    #: run, or the program already emits a span for it
    span: bool = True
    #: ``(args, result) -> int`` summed into ``Tally.size[key]``
    size: Callable | None = None
    #: keep the last return value in ``Tally.kept[key]``
    keep: bool = False


def _len_result(args, result):
    return len(result)


def _arg0_size(args, result):
    return args[0].size


SHIMS = (
    # core.disease — the PTTS person phase
    Shim("repro.core.disease", "DiseaseModel.advance_day", "ptts.advance", size=_len_result),
    Shim("repro.core.disease", "DiseaseModel.infect", "ptts.infect", size=_len_result),
    # util.rng — one keyed Generator per stream() call; batched keyed draws
    Shim("repro.util.rng", "RngFactory.stream", "rng.stream", span=False),
    Shim("repro.util.rng", "RngFactory.keyed_uniforms", "rng.keyed_uniforms",
         size=lambda args, result: result.size),
    # core.exposure / core.ckernel — the first argument of either pair
    # stage is one column of the day's candidate visits (susceptible or
    # infectious, at a location that has both), so its size is the
    # kernel's active set.  exposure.compute itself is a program span.
    Shim("repro.core.ckernel", "accumulate_exposures", "ckernel.accumulate", size=_arg0_size),
    Shim("repro.core.exposure", "blocked_pairwise_exposures", "exposure.pair_enum",
         size=_arg0_size),
    # core.interventions
    Shim("repro.core.interventions", "InterventionSchedule.visit_mask", "visits.filter"),
    Shim("repro.core.interventions", "InterventionSchedule.update_treatments",
         "interventions.central"),
    Shim("repro.core.interventions", "InterventionSchedule.post_apply",
         "interventions.central"),
    # simulator construction, one per backend
    Shim("repro.core.simulator", "SequentialSimulator.from_spec", "sim.from_spec"),
    Shim("repro.smp.backend", "SmpSimulator.from_spec", "sim.from_spec"),
    Shim("repro.core.parallel", "ParallelEpiSimdemics.from_spec", "sim.from_spec"),
    # partition — splitloc already carries a program span; the shim only
    # reads SplitResult.n_split
    Shim("repro.partition", "split_heavy_locations", "partition.split",
         span=False, size=lambda args, result: result.n_split),
    Shim("repro.partition", "partition_bipartite", "partition.gp"),
    # backends whose result execute() flattens into a RunResult
    Shim("repro.core.parallel", "ParallelEpiSimdemics.run", "charm.run", keep=True),
    Shim("repro.smp.backend", "build_shared_state", "smp.arena_build"),
    Shim("repro.smp.backend", "SmpSimulator.run", "smp.run_call", span=False, keep=True),
    # lab result store
    Shim("repro.lab.store", "ResultStore.append_records", "lab.store_write"),
    Shim("repro.lab.store", "ResultStore.write_manifest", "lab.store_write"),
)


class Tally:
    """What the shims counted, keyed by :attr:`Shim.key`."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.seconds: dict[str, float] = {}
        self.size: dict[str, int] = {}
        self.kept: dict[str, object] = {}


def _wrap(fn, shim: Shim, tally: Tally):
    key = shim.key
    tally.calls.setdefault(key, 0)
    tally.seconds.setdefault(key, 0.0)
    tally.size.setdefault(key, 0)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        if shim.span:
            with observe.span(key):
                result = fn(*args, **kwargs)
        else:
            result = fn(*args, **kwargs)
        tally.seconds[key] += time.perf_counter() - t0
        tally.calls[key] += 1
        if shim.size is not None:
            tally.size[key] += int(shim.size(args, result))
        if shim.keep:
            tally.kept[key] = result
        return result

    return wrapper


@contextmanager
def installed(tally: Tally, shims=SHIMS):
    """Wrap every entry point in ``shims`` for the ``with`` block.

    The exact original objects are put back on exit, also when the
    block raises.
    """
    undo = []
    try:
        for shim in shims:
            owner = importlib.import_module(shim.module)
            *path, name = shim.attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            # vars(), not getattr: a classmethod must be re-wrapped as
            # one, and the restore must put back the descriptor itself.
            original = vars(owner)[name]
            if isinstance(original, classmethod):
                patched = classmethod(_wrap(original.__func__, shim, tally))
            else:
                patched = _wrap(original, shim, tally)
            setattr(owner, name, patched)
            undo.append((owner, name, original))
        yield tally
    finally:
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)


# ----------------------------------------------------------------------
def _span_views(obs):
    """``(total seconds by name, self seconds by name, spans by name)``;
    self time is a span's duration minus its direct children's."""
    spans = obs.spans
    child_sum = [0.0] * len(spans)
    for s in spans:
        if s is not None and s.parent >= 0:
            child_sum[s.parent] += s.duration
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    by_name: dict[str, list] = {}
    for i, s in enumerate(spans):
        if s is None:
            continue
        total[s.name] = total.get(s.name, 0.0) + s.duration
        self_s[s.name] = self_s.get(s.name, 0.0) + s.duration - child_sum[i]
        by_name.setdefault(s.name, []).append(s)
    return total, self_s, by_name


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def derive(obs, tally: Tally, *, run_s: float, n_days: int, graph, partition=None,
           sweep: dict | None = None) -> dict[str, float]:
    """Per-layer metrics of one traced run (names as in ``BENCHMARK.json``).

    Layers the workload never entered come out as 0 calls / 0 seconds,
    which is what they cost.  ``sweep`` carries the ``SweepReport``
    numbers of the warm and the cold sweep for ``sweep_small``.
    """
    total, self_s, by_name = _span_views(obs)
    sec, calls, size = tally.seconds, tally.calls, tally.size
    m: dict[str, float] = {}

    # core.disease
    m["ptts.advance_s"] = sec["ptts.advance"]
    m["ptts.infect_s"] = sec["ptts.infect"]
    m["ptts.transitions"] = size["ptts.advance"] + size["ptts.infect"]
    m["ptts.us_per_transition"] = 1e6 * _ratio(
        sec["ptts.advance"] + sec["ptts.infect"], m["ptts.transitions"]
    )
    # util.rng
    m["rng.stream_calls"] = calls["rng.stream"]
    m["rng.stream_s"] = sec["rng.stream"]
    m["rng.keyed_uniforms_s"] = sec["rng.keyed_uniforms"]
    m["rng.keyed_draws"] = size["rng.keyed_uniforms"]
    # core.exposure / core.ckernel
    exposure = by_name.get("exposure.compute", [])
    gathered = sum(s.attrs.get("visits", 0) for s in exposure)
    candidates = size["ckernel.accumulate"] + size["exposure.pair_enum"]
    m["exposure.compute_s"] = total.get("exposure.compute", 0.0)
    m["exposure.pair_enum_s"] = sec["exposure.pair_enum"]
    m["exposure.candidate_visits"] = candidates
    m["exposure.infections"] = sum(s.attrs.get("infections", 0) for s in exposure)
    m["exposure.ns_per_visit"] = 1e9 * _ratio(m["exposure.compute_s"], gathered)
    m["exposure.active_visit_ratio"] = _ratio(candidates, gathered)
    m["ckernel.accumulate_s"] = sec["ckernel.accumulate"]
    m["ckernel.calls"] = calls["ckernel.accumulate"]
    # core.interventions
    m["visits.filter_s"] = sec["visits.filter"]
    m["interventions.central_s"] = sec["interventions.central"]
    # core.simulator
    days = [s.duration for s in by_name.get("sim.day", [])]
    m["sim.from_spec_s"] = sec["sim.from_spec"]
    m["sim.day_s.median"] = statistics.median(days) if days else 0.0
    m["sim.day_s.max"] = max(days, default=0.0)
    m["sim.day_self_s"] = self_s.get("sim.day", 0.0)
    # The rows that should tile run_s: simulator construction plus the
    # backend's day loop (for the sweep, the sweep itself).
    tiled = sec["sim.from_spec"] + sum(days) + sec["charm.run"] + total.get("smp.run", 0.0)
    if sweep is not None:
        tiled = by_name["lab.sweep"][0].duration  # the warm sweep; the cold one follows
    m["sim.coverage_pct"] = 100.0 * _ratio(tiled, run_s)
    # synthpop / spec builds (set-up side)
    m["synthpop.build_s"] = total.get("spec.pop_build", 0.0)
    m["synthpop.persons_per_s"] = _ratio(graph.n_persons, m["synthpop.build_s"])
    m["synthpop.stream_pass1_s"] = total.get("synthpop.stream_pass1", 0.0)
    m["synthpop.stream_pass2_s"] = total.get("synthpop.stream_pass2", 0.0)
    columns = [
        getattr(graph, f.name) for f in dataclasses.fields(graph)
        if not f.name.startswith("_")
    ]
    m["synthpop.bytes_per_person"] = _ratio(
        sum(c.nbytes for c in columns if isinstance(c, np.ndarray)), graph.n_persons
    )
    # partition
    m["partition.build_s"] = total.get("spec.part_build", 0.0)
    m["partition.splitloc_s"] = total.get("partition.splitloc", 0.0)
    m["partition.gp_s"] = sec["partition.gp"]
    m["partition.n_split_locations"] = size["partition.split"]
    if partition is not None:
        from repro.analysis.speedup import upper_bound_speedup
        from repro.partition import edge_cut, imbalance, partition_loads

        loads = partition_loads(graph, partition)
        m["partition.edge_cut"] = edge_cut(graph, partition)
        m["partition.imbalance_max"] = float(imbalance(loads).max())
        # paper §III-B: S_ub = L_tot / L_max over location-phase loads
        m["partition.speedup_bound"] = upper_bound_speedup(loads[:, 1])
    # charm
    charm = tally.kept.get("charm.run")
    if charm is not None:
        stats = charm.runtime_stats
        m["charm.run_s"] = sec["charm.run"]
        m["charm.events"] = stats["events"]
        m["charm.events_per_s"] = _ratio(stats["events"], sec["charm.run"])
        m["charm.messages"] = sum(stats["messages"].values())
        m["charm.bytes"] = sum(stats["bytes"].values())
        m["charm.compute_max_s"] = stats["compute_max"]
        m["charm.model_s_per_day"] = stats["virtual_time"] / n_days
    # smp — per-phase seconds are last-crossing times over the workers
    smp = tally.kept.get("smp.run_call")
    if smp is not None:
        m["smp.arena_build_s"] = sec["smp.arena_build"]
        m["smp.fork_s"] = smp.phase_times[0].start
        m["smp.person_phase_s"] = sum(p.person_phase for p in smp.phase_times)
        m["smp.location_phase_s"] = sum(p.location_phase for p in smp.phase_times)
        m["smp.apply_s"] = sum(p.day_done - p.locations_done for p in smp.phase_times)
        m["smp.wire_bytes"] = smp.wire_bytes
        m["smp.backpressure_events"] = smp.backpressure_events
    # lab
    if sweep is not None:
        m.update(sweep)
        m["lab.store_write_s"] = sec["lab.store_write"]
    # plain JSON numbers: counts stay whole, numpy scalars are unwrapped
    return {
        k: int(v) if isinstance(v, (int, np.integer)) else float(v)
        for k, v in m.items()
    }
