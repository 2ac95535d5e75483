"""Report generation from an :class:`~repro.observe.Observer`.

Three families of views, mirroring what the paper's team got out of
Charm++ *Projections* (Figures 9–11):

* **Chrome trace-event JSON** — load the emitted file in
  ``chrome://tracing`` or https://ui.perfetto.dev to scrub through the
  wall-clock phases and the per-PE virtual timelines interactively;
* **per-PE text timeline + utilisation** — the Figure-9/10 view:
  which PEs were busy when, who is the straggler, where the sync gaps
  are;
* **phase breakdown** — inclusive/exclusive wall time per span name:
  how the run divides between synthesis, partitioning and simulation.

All functions are pure views over a finished observer; none mutate it.
"""

from __future__ import annotations

import json
from collections import defaultdict

import numpy as np

from repro.observe.recorder import Observer

__all__ = [
    "chrome_trace_events",
    "write_chrome_trace",
    "pe_timeline",
    "utilization",
    "utilization_table",
    "method_profile",
    "method_profile_table",
    "phase_breakdown",
    "phase_table",
]

#: Chrome-trace process ids for the two time domains.
WALL_PID = 1
VIRTUAL_PID = 2


def _us(seconds: float) -> float:
    """Seconds → microseconds, rounded for stable JSON output."""
    return round(seconds * 1e6, 3)


def chrome_trace_events(obs: Observer) -> list[dict]:
    """Flatten an observer into Chrome trace-event dicts.

    Wall spans land in process 1, one track per Python thread; virtual
    (simulated-PE) spans land in process 2, one track per PE; counters
    become ``"C"`` (counter) events.  The list loads directly in
    Perfetto once wrapped by :func:`write_chrome_trace`.

    >>> from repro.observe import Observer
    >>> obs = Observer(epoch=0.0)
    >>> _ = obs.record_span("synthpop.generate", 0.0, 0.5)
    >>> events = chrome_trace_events(obs)
    >>> [e["ph"] for e in events if e["name"] == "synthpop.generate"]
    ['X']
    """
    events: list[dict] = [
        {"ph": "M", "pid": WALL_PID, "tid": 0, "name": "process_name",
         "args": {"name": "wall clock (python)"}},
    ]
    if obs.virtual_spans:
        events.append(
            {"ph": "M", "pid": VIRTUAL_PID, "tid": 0, "name": "process_name",
             "args": {"name": "virtual PEs (modelled time)"}}
        )
        for pe in range(obs.n_pes):
            events.append(
                {"ph": "M", "pid": VIRTUAL_PID, "tid": pe, "name": "thread_name",
                 "args": {"name": f"PE {pe}"}}
            )
    for s in obs.closed_spans():
        events.append(
            {"ph": "X", "pid": WALL_PID, "tid": s.tid, "name": s.name,
             "cat": "wall", "ts": _us(s.start), "dur": _us(s.duration),
             "args": dict(s.attrs)}
        )
    for v in obs.virtual_spans:
        events.append(
            {"ph": "X", "pid": VIRTUAL_PID, "tid": v.pe, "name": v.name,
             "cat": "virtual", "ts": _us(v.start), "dur": _us(v.duration),
             "args": {}}
        )
    for c in obs.counter_samples:
        events.append(
            {"ph": "C", "pid": WALL_PID, "tid": 0, "name": c.name,
             "ts": _us(c.t), "args": {c.name: c.total}}
        )
    return events


def write_chrome_trace(obs: Observer, path) -> None:
    """Write the observer as a Chrome/Perfetto-loadable JSON file.

    >>> import json, tempfile, os
    >>> from repro.observe import Observer
    >>> obs = Observer(epoch=0.0)
    >>> _ = obs.record_span("sim.day", 0.0, 0.1)
    >>> fd, path = tempfile.mkstemp(suffix=".json"); os.close(fd)
    >>> write_chrome_trace(obs, path)
    >>> sorted(json.load(open(path)))
    ['displayTimeUnit', 'traceEvents']
    >>> os.unlink(path)
    """
    doc = {"traceEvents": chrome_trace_events(obs), "displayTimeUnit": "ms"}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)


# ----------------------------------------------------------------------
# text timeline (the Figure-9/10 view)
# ----------------------------------------------------------------------
def pe_timeline(obs: Observer, width: int = 72, pes: list[int] | None = None) -> str:
    """Per-PE busy timeline over the observer's virtual spans.

    Each column is a time bucket; the glyph encodes the busy fraction
    (`` `` <25%, ``-`` <50%, ``+`` <75%, ``#`` ≥75%).  ``pes`` selects
    the rows to print (default: every PE).

    >>> from repro.observe import Observer
    >>> obs = Observer(epoch=0.0)
    >>> obs.add_virtual_span(0, 0.0, 1.0, "pm.person_phase")
    >>> obs.add_virtual_span(1, 0.5, 1.0, "lm.location_phase")
    >>> print(pe_timeline(obs, width=8))
    pe   0 |########|
    pe   1 |    ####|
    """
    spans = obs.virtual_spans
    if not spans:
        return "(empty trace)"
    t0 = min(v.start for v in spans)
    t1 = max(v.end for v in spans)
    if t1 <= t0:
        return "(zero-length trace)"
    bucket = (t1 - t0) / width
    busy = np.zeros((obs.n_pes, width))
    for v in spans:
        b0 = int((v.start - t0) / bucket)
        b1 = min(int((v.end - t0) / bucket), width - 1)
        for b in range(b0, b1 + 1):
            lo = t0 + b * bucket
            hi = lo + bucket
            busy[v.pe, b] += max(0.0, min(v.end, hi) - max(v.start, lo))
    lines = []
    for pe in pes if pes is not None else range(obs.n_pes):
        frac = busy[pe] / bucket
        glyphs = "".join(
            "#" if f >= 0.75 else "+" if f >= 0.5 else "-" if f >= 0.25 else " "
            for f in frac
        )
        lines.append(f"pe{pe:>4} |{glyphs}|")
    return "\n".join(lines)


def utilization(obs: Observer) -> np.ndarray:
    """Busy fraction per PE over the traced virtual-time span.

    >>> from repro.observe import Observer
    >>> obs = Observer(epoch=0.0)
    >>> obs.add_virtual_span(0, 0.0, 1.0, "a.m")
    >>> obs.add_virtual_span(1, 0.0, 0.5, "a.m")
    >>> utilization(obs).tolist()
    [1.0, 0.5]
    """
    if not obs.virtual_spans:
        return np.zeros(obs.n_pes)
    busy = np.zeros(obs.n_pes)
    for v in obs.virtual_spans:
        busy[v.pe] += v.duration
    t0 = min(v.start for v in obs.virtual_spans)
    t1 = max(v.end for v in obs.virtual_spans)
    span = t1 - t0
    return busy / span if span > 0 else busy


def utilization_table(obs: Observer) -> str:
    """Formatted per-PE utilisation — the Figure-11 summary view.

    >>> from repro.observe import Observer
    >>> obs = Observer(epoch=0.0)
    >>> obs.add_virtual_span(0, 0.0, 1.0, "a.m")
    >>> print(utilization_table(obs))
    pe   busy (ms)   util%
    pe0      1000.0  100.0%
    mean util 100.0%, min pe0 (100.0%), max pe0 (100.0%)
    """
    util = utilization(obs)
    if util.size == 0:
        return "(no virtual spans)"
    busy = np.zeros(obs.n_pes)
    for v in obs.virtual_spans:
        busy[v.pe] += v.duration
    lines = [f"{'pe':<4} {'busy (ms)':>9}   {'util%':>5}"]
    for pe in range(obs.n_pes):
        lines.append(f"pe{pe:<2} {busy[pe] * 1e3:>10.1f}  {util[pe] * 100:>5.1f}%")
    lo, hi = int(np.argmin(util)), int(np.argmax(util))
    lines.append(
        f"mean util {util.mean() * 100:.1f}%, min pe{lo} ({util[lo] * 100:.1f}%), "
        f"max pe{hi} ({util[hi] * 100:.1f}%)"
    )
    return "\n".join(lines)


def method_profile(obs: Observer) -> dict[str, tuple[int, float]]:
    """``entry-method name -> (call count, total virtual time)``.

    >>> from repro.observe import Observer
    >>> obs = Observer(epoch=0.0)
    >>> obs.add_virtual_span(0, 0.0, 0.5, "lm.location_phase")
    >>> obs.add_virtual_span(1, 0.0, 0.25, "lm.location_phase")
    >>> method_profile(obs)
    {'lm.location_phase': (2, 0.75)}
    """
    out: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for v in obs.virtual_spans:
        rec = out[v.name]
        rec[0] += 1
        rec[1] += v.duration
    return {k: (v[0], v[1]) for k, v in out.items()}


def method_profile_table(obs: Observer, top: int = 12) -> str:
    """Formatted entry-method profile, heaviest first.

    >>> from repro.observe import Observer
    >>> obs = Observer(epoch=0.0)
    >>> obs.add_virtual_span(0, 0.0, 0.5, "lm.location_phase")
    >>> print(method_profile_table(obs))
    entry method                            calls  time (ms)
    lm.location_phase                           1    500.000
    """
    prof = sorted(method_profile(obs).items(), key=lambda kv: (-kv[1][1], kv[0]))[:top]
    lines = [f"{'entry method':<36} {'calls':>8} {'time (ms)':>10}"]
    for name, (calls, total) in prof:
        lines.append(f"{name:<36} {calls:>8} {total * 1e3:>10.3f}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# wall-clock phase breakdown
# ----------------------------------------------------------------------
def phase_breakdown(obs: Observer) -> dict[str, dict]:
    """Aggregate wall spans by name.

    Returns ``name -> {"calls", "incl", "self"}`` where ``incl`` is the
    summed inclusive duration and ``self`` excludes time spent in child
    spans — the number that tells you *which layer* actually burns the
    time.

    >>> from repro.observe import Observer
    >>> obs = Observer(epoch=0.0)
    >>> outer = obs.record_span("partition.kway", 0.0, 1.0)
    >>> _ = obs.record_span("partition.bisect", 0.1, 0.7, parent=outer)
    >>> phase_breakdown(obs)["partition.kway"]
    {'calls': 1, 'incl': 1.0, 'self': 0.4}
    """
    spans = obs.spans
    child_time = defaultdict(float)
    for s in spans:
        if s is not None and s.parent >= 0:
            child_time[s.parent] += s.duration
    out: dict[str, dict] = {}
    for idx, s in enumerate(spans):
        if s is None:
            continue
        rec = out.setdefault(s.name, {"calls": 0, "incl": 0.0, "self": 0.0})
        rec["calls"] += 1
        rec["incl"] += s.duration
        rec["self"] += max(0.0, s.duration - child_time.get(idx, 0.0))
    for rec in out.values():
        rec["incl"] = round(rec["incl"], 9)
        rec["self"] = round(rec["self"], 9)
    return out


def phase_table(obs: Observer) -> str:
    """Formatted phase breakdown, heaviest inclusive time first.

    >>> from repro.observe import Observer
    >>> obs = Observer(epoch=0.0)
    >>> _ = obs.record_span("synthpop.generate", 0.0, 0.25)
    >>> print(phase_table(obs))
    phase                               calls   incl (s)   self (s)
    synthpop.generate                       1      0.250      0.250
    """
    rows = sorted(phase_breakdown(obs).items(), key=lambda kv: (-kv[1]["incl"], kv[0]))
    lines = [f"{'phase':<34} {'calls':>6} {'incl (s)':>10} {'self (s)':>10}"]
    for name, rec in rows:
        lines.append(
            f"{name:<34} {rec['calls']:>6} {rec['incl']:>10.3f} {rec['self']:>10.3f}"
        )
    return "\n".join(lines)
