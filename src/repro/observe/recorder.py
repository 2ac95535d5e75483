"""Structured tracing primitives: spans, counters and the Observer.

This is the Projections-equivalent data-collection layer (the paper's
§IV optimisation story was driven entirely by Charm++ *Projections*
timelines, Figures 9–11).  Two event families are recorded:

* **wall spans** — nested, thread-safe ``with observe.span(...)``
  regions measuring how long our Python code actually takes
  (synthesis, partitioning, the simulators);
* **virtual spans** — per-PE entry-method executions in *modelled*
  time, recorded by the simulated runtime
  (:class:`~repro.charm.scheduler.RuntimeSimulator`) while an observer
  is installed — the view equivalent to a Projections per-PE timeline.

Everything funnels into one :class:`Observer`.  When no observer is
installed (the default), every instrumentation site costs a single
global read plus a no-op context manager — the property the
``benchmarks/bench_observe_overhead.py`` guard pins below 3% end to
end.
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = [
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
]


@dataclass(frozen=True)
class Span:
    """One completed wall-clock region.

    ``start``/``end`` are seconds relative to the owning observer's
    epoch; ``parent`` is the index of the enclosing span in
    :attr:`Observer.spans` (``-1`` for a root span).

    >>> s = Span(name="partition.kway", start=0.0, end=0.25, tid=0, parent=-1)
    >>> s.duration
    0.25
    """

    name: str
    start: float
    end: float
    tid: int = 0
    parent: int = -1
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class VirtualSpan:
    """One entry-method execution on a simulated PE (modelled time).

    >>> v = VirtualSpan(pe=3, start=0.001, end=0.004, name="lm.location_phase")
    >>> round(v.duration, 3)
    0.003
    """

    pe: int
    start: float
    end: float
    name: str

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class CounterSample:
    """One timestamped counter increment (``total`` is the running sum).

    >>> CounterSample(t=0.5, tid=0, name="exposure.infections", total=12.0).total
    12.0
    """

    t: float
    tid: int
    name: str
    total: float


class _NullSpan:
    """Shared no-op span handle returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class _SpanHandle:
    """Live span: context manager that records on exit (exception-safe)."""

    __slots__ = ("_obs", "_name", "_attrs", "_index", "_start")

    def __init__(self, obs: "Observer", name: str, attrs: dict):
        self._obs = obs
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> "_SpanHandle":
        self._index, self._start = self._obs._open_span()
        return self

    def set(self, **attrs) -> "_SpanHandle":
        """Attach attributes to the span while it is running."""
        self._attrs.update(attrs)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self._attrs["error"] = exc_type.__name__
        self._obs._close_span(self._index, self._name, self._start, self._attrs)
        return False


class Observer:
    """Collects spans, virtual spans and counters for one traced run.

    Thread safe: concurrent threads record into one instance; span
    nesting is tracked per thread.  Construct with ``epoch=0.0`` when
    recording manual (deterministic) times, e.g. in tests:

    >>> obs = Observer(epoch=0.0)
    >>> i = obs.record_span("synthpop.generate", 0.0, 0.5, attrs={"persons": 100})
    >>> obs.spans[i].duration
    0.5
    >>> obs.add_virtual_span(0, 0.0, 0.2, "pm.person_phase")
    >>> obs.n_pes
    1
    """

    def __init__(self, epoch: float | None = None):
        self.epoch = time.perf_counter() if epoch is None else epoch
        self.spans: list[Span | None] = []
        self.virtual_spans: list[VirtualSpan] = []
        self.counters: dict[str, float] = {}
        self.counter_samples: list[CounterSample] = []
        #: number of PE rows covered by the virtual spans
        self.n_pes = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._tids: dict[int, int] = {}

    # -- identity ------------------------------------------------------
    def _tid(self) -> int:
        ident = threading.get_ident()
        tid = self._tids.get(ident)
        if tid is None:
            with self._lock:
                tid = self._tids.setdefault(ident, len(self._tids))
        return tid

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    # -- live recording (used by the span() fast path) -----------------
    def _open_span(self) -> tuple[int, float]:
        with self._lock:
            index = len(self.spans)
            self.spans.append(None)  # placeholder, filled on close
        self._stack().append(index)
        return index, time.perf_counter() - self.epoch

    def _close_span(self, index: int, name: str, start: float, attrs: dict) -> None:
        stack = self._stack()
        stack.pop()
        parent = stack[-1] if stack else -1
        tid = self._tid()  # resolve before locking (_tid takes the lock)
        end = time.perf_counter() - self.epoch
        with self._lock:
            self.spans[index] = Span(
                name=name, start=start, end=end, tid=tid,
                parent=parent, attrs=attrs,
            )

    # -- manual recording (deterministic tests, runtimes) --------------
    def record_span(
        self,
        name: str,
        start: float,
        end: float,
        tid: int = 0,
        parent: int = -1,
        attrs: dict | None = None,
    ) -> int:
        """Append a completed span with explicit times; return its index."""
        with self._lock:
            index = len(self.spans)
            self.spans.append(
                Span(name=name, start=start, end=end, tid=tid, parent=parent,
                     attrs=attrs or {})
            )
        return index

    def add_virtual_span(self, pe: int, start: float, end: float, name: str) -> None:
        """Append one simulated-PE execution interval (modelled time)."""
        with self._lock:
            self.virtual_spans.append(VirtualSpan(pe=pe, start=start, end=end, name=name))
            if pe + 1 > self.n_pes:
                self.n_pes = pe + 1

    def record_counter(self, name: str, value: float, t: float, tid: int = 0) -> None:
        """Add ``value`` to counter ``name`` with an explicit timestamp."""
        with self._lock:
            total = self.counters.get(name, 0.0) + value
            self.counters[name] = total
            self.counter_samples.append(CounterSample(t=t, tid=tid, name=name, total=total))

    def counter(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` to counter ``name`` at the current wall time."""
        self.record_counter(name, value, time.perf_counter() - self.epoch, self._tid())

    # -- views ---------------------------------------------------------
    def closed_spans(self) -> list[Span]:
        """All completed spans (open placeholders filtered out)."""
        with self._lock:
            return [s for s in self.spans if s is not None]


# ----------------------------------------------------------------------
# module-level switchboard
# ----------------------------------------------------------------------
_ACTIVE: Observer | None = None


def start(observer: Observer | None = None) -> Observer:
    """Install ``observer`` (or a fresh one) as the active collector.

    >>> from repro import observe
    >>> obs = observe.start()
    >>> observe.enabled()
    True
    >>> _ = observe.stop()
    """
    global _ACTIVE
    _ACTIVE = observer if observer is not None else Observer()
    return _ACTIVE


def stop() -> Observer | None:
    """Uninstall and return the active observer (None if not tracing).

    >>> from repro import observe
    >>> _ = observe.start()
    >>> observe.stop() is not None
    True
    >>> observe.enabled()
    False
    """
    global _ACTIVE
    obs, _ACTIVE = _ACTIVE, None
    return obs


def active() -> Observer | None:
    """The currently installed observer, or None when tracing is off.

    >>> from repro import observe
    >>> observe.active() is None
    True
    """
    return _ACTIVE


def enabled() -> bool:
    """True while an observer is installed.

    >>> from repro import observe
    >>> observe.enabled()
    False
    """
    return _ACTIVE is not None


@contextmanager
def observing(observer: Observer | None = None):
    """Enable tracing for a ``with`` block; restores the previous state.

    >>> from repro import observe
    >>> with observe.observing() as obs:
    ...     with observe.span("demo.step"):
    ...         pass
    >>> len(obs.closed_spans())
    1
    >>> observe.enabled()
    False
    """
    global _ACTIVE
    prev = _ACTIVE
    obs = observer if observer is not None else Observer()
    _ACTIVE = obs
    try:
        yield obs
    finally:
        _ACTIVE = prev


def span(name: str, **attrs):
    """Open a named span; returns a context manager handle.

    When tracing is disabled this returns a shared no-op handle — the
    call costs one global read (see the overhead-guard benchmark).
    The handle's ``set(**attrs)`` attaches attributes discovered while
    the span runs; on an exception the span still closes, tagged with
    ``error=<exception type>``.

    >>> from repro import observe
    >>> with observe.observing() as obs:
    ...     with observe.span("exposure.compute", day=3) as s:
    ...         _ = s.set(infections=2)
    >>> obs.closed_spans()[0].attrs == {"day": 3, "infections": 2}
    True
    """
    obs = _ACTIVE
    if obs is None:
        return _NULL_SPAN
    return _SpanHandle(obs, name, attrs)


def counter(name: str, value: float = 1.0) -> None:
    """Add ``value`` to the named counter (no-op while disabled).

    >>> from repro import observe
    >>> with observe.observing() as obs:
    ...     observe.counter("visits.sent", 10)
    ...     observe.counter("visits.sent", 5)
    >>> obs.counters["visits.sent"]
    15.0
    """
    obs = _ACTIVE
    if obs is None:
        return
    obs.counter(name, value)


def traced(name: str | None = None, **static_attrs):
    """Decorator: wrap every call of a function in a span.

    The span is only materialised while tracing is enabled; the
    disabled path adds one global read per call.

    >>> from repro import observe
    >>> @observe.traced("demo.work")
    ... def work(x):
    ...     return x * 2
    >>> with observe.observing() as obs:
    ...     _ = work(21)
    >>> obs.closed_spans()[0].name
    'demo.work'
    """

    def decorate(fn):
        label = name if name is not None else fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            obs = _ACTIVE
            if obs is None:
                return fn(*args, **kwargs)
            with _SpanHandle(obs, label, dict(static_attrs)):
                return fn(*args, **kwargs)

        return wrapper

    return decorate
