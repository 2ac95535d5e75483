"""Projections-grade observability for the whole pipeline.

The paper's §IV optimisations (SMP comm-thread tuning, completion
detection, message aggregation) were found by *looking at per-PE
timelines* in Charm++ Projections (Figures 9–11).  This package is the
reproduction's equivalent: a structured tracing/metrics layer threaded
through synthesis (:mod:`repro.synthpop.generator`), partitioning
(:mod:`repro.partition`), both simulators (:mod:`repro.core`) and the
runtime scheduler (:mod:`repro.charm.scheduler`, which records each
entry-method execution as a per-PE virtual span).

Usage::

    from repro import observe

    with observe.observing() as obs:
        ...run anything...
    print(observe.phase_table(obs))          # wall-clock breakdown
    print(observe.pe_timeline(obs))          # Figure-9 style PE rows
    observe.write_chrome_trace(obs, "trace.json")  # open in Perfetto

When no observer is installed every instrumentation site costs one
global read — the ``benchmarks/bench_observe_overhead.py`` guard keeps
the disabled-mode tax under 3%.  ``python -m repro profile`` drives
:func:`run_profile` from the shell; see ``docs/profiling.md``.

Tracing draws no random numbers: traced and untraced runs produce
bit-identical epidemics (``tests/observe/test_rng_unperturbed.py``).
"""

from repro.observe.export import (
    chrome_trace_events,
    method_profile,
    method_profile_table,
    pe_timeline,
    phase_breakdown,
    phase_table,
    utilization,
    utilization_table,
    write_chrome_trace,
)
from repro.observe.recorder import (
    CounterSample,
    Observer,
    Span,
    VirtualSpan,
    active,
    counter,
    enabled,
    observing,
    span,
    start,
    stop,
    traced,
)

__all__ = [
    # recorder
    "Span",
    "VirtualSpan",
    "CounterSample",
    "Observer",
    "start",
    "stop",
    "active",
    "enabled",
    "observing",
    "span",
    "counter",
    "traced",
    # exporters
    "chrome_trace_events",
    "write_chrome_trace",
    "pe_timeline",
    "utilization",
    "utilization_table",
    "method_profile",
    "method_profile_table",
    "phase_breakdown",
    "phase_table",
    # profile driver (lazy: pulls in the full pipeline)
    "ProfilePreset",
    "PRESETS",
    "ProfileReport",
    "run_profile",
]


def __getattr__(name):
    # The profile driver imports synthpop/partition/core, which in turn
    # import this package for instrumentation — load it lazily so the
    # recorder stays import-cycle-free and cheap to pull in.
    if name in ("ProfilePreset", "PRESETS", "ProfileReport", "run_profile"):
        from repro.observe import profile

        return getattr(profile, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
