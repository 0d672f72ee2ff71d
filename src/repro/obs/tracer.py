"""Structured spans: the tracing half of :mod:`repro.obs`.

A :class:`Span` is one timed, named unit of work — "translate Φ7 to a Büchi
automaton", "score batch 12", "apply mini-batch 3 of epoch 1" — with a
category, wall-clock start/duration, the process/thread it ran on, free-form
attributes, and a parent link so spans nest.  A :class:`Tracer` collects
spans; instrumented code never holds a tracer explicitly but opens spans
through the module-level :func:`span` helper, which delegates to the
*installed* tracer:

* by default the installed tracer is a :class:`NullTracer` whose ``span()``
  returns a shared no-op context manager — instrumentation costs one global
  read and one method call, and **no timing, allocation or I/O happens**;
* :func:`install_tracer` swaps in a real :class:`Tracer` for the current
  process.  Tracing never changes what instrumented code computes, only what
  it records, so traced and untraced runs produce identical results.

Nesting is tracked per thread: a span opened while another span is open on
the same thread records that span as its parent.  Spans opened on different
threads (a service's dispatcher thread, say) are roots of their own
thread's tree, distinguishable by ``tid``.

Crossing a process boundary
---------------------------
A forked child cannot append to the parent's in-memory span list.  The one
child that does traced work, the training worker
(:class:`repro.lm.shards.TrainingShards`), records into its own
:class:`Tracer` and returns its finished spans in its replies; the parent
files them under its open span with :meth:`Tracer.adopt`.
``time.perf_counter_ns`` is CLOCK_MONOTONIC-based on Linux, so parent and
worker timestamps share one timeline.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class Span:
    """One finished, timed unit of work.

    ``start_ns`` / ``duration_ns`` are ``time.perf_counter_ns`` readings
    (monotonic; on Linux comparable across processes).  ``parent_id`` is the
    ``span_id`` of the span that was open on the same thread when this one
    started, or ``None`` for a root span.  ``attributes`` carry small
    JSON-serialisable values (spec names, batch sizes, group widths).
    """

    name: str
    category: str
    start_ns: int
    duration_ns: int
    pid: int
    tid: int
    span_id: int
    parent_id: int | None = None
    attributes: dict = field(default_factory=dict)

    @property
    def duration_seconds(self) -> float:
        """The span's wall-clock duration in seconds."""
        return self.duration_ns / 1e9


@dataclass(frozen=True)
class CounterSample:
    """One sampled value of a named counter (a queue depth, a buffer fill)."""

    name: str
    value: float
    timestamp_ns: int
    pid: int
    tid: int


class _NullSpan:
    """The shared do-nothing span handle the disabled path hands out."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    Installed by default, so instrumented code pays only a module-global read
    and a trivial call per span — the <2 % overhead bound the benchmarks
    assert.  ``enabled`` is ``False`` so callers can skip building expensive
    attribute values.
    """

    enabled = False

    def span(self, name: str, *, category: str = "run", **attributes) -> _NullSpan:
        """Return the shared no-op span context manager."""
        return _NULL_SPAN

    def counter(self, name: str, value: float) -> None:
        """Discard the sample (tracing is disabled)."""


class _SpanHandle:
    """Context manager measuring one span for a live :class:`Tracer`."""

    __slots__ = ("_tracer", "_name", "_category", "_attributes", "_span_id", "_parent_id", "_start")

    def __init__(self, tracer: "Tracer", name: str, category: str, attributes: dict):
        self._tracer = tracer
        self._name = name
        self._category = category
        self._attributes = attributes

    def __enter__(self) -> "_SpanHandle":
        tracer = self._tracer
        stack = tracer._thread_stack()
        self._parent_id = stack[-1] if stack else None
        self._span_id = next(tracer._ids)
        stack.append(self._span_id)
        self._start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc_info) -> bool:
        end = time.perf_counter_ns()
        tracer = self._tracer
        stack = tracer._thread_stack()
        if stack and stack[-1] == self._span_id:
            stack.pop()
        tracer._emit_span(
            Span(
                name=self._name,
                category=self._category,
                start_ns=self._start,
                duration_ns=end - self._start,
                pid=tracer._pid,
                tid=threading.get_ident(),
                span_id=self._span_id,
                parent_id=self._parent_id,
                attributes=self._attributes,
            )
        )
        return False


class Tracer:
    """Collects spans and counter samples for one process, in memory.

    Thread-safe: spans may open and close concurrently on any number of
    threads; nesting is tracked per thread.
    """

    enabled = True

    def __init__(self):
        self._spans: list = []
        self._counters: list = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._pid = os.getpid()

    # ------------------------------------------------------------------ #
    def _thread_stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _emit_span(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)

    # ------------------------------------------------------------------ #
    def span(self, name: str, *, category: str = "run", **attributes) -> _SpanHandle:
        """Open a span: a context manager timing the enclosed block.

        ``category`` groups spans for reporting (``"pipeline"``,
        ``"serving"``, ``"modelcheck"``, ``"train"``); ``attributes`` are
        small JSON-serialisable values recorded on the span.
        """
        return _SpanHandle(self, name, category, attributes)

    def counter(self, name: str, value: float) -> None:
        """Record one sample of a named counter (e.g. a queue depth)."""
        sample = CounterSample(
            name=name,
            value=value,
            timestamp_ns=time.perf_counter_ns(),
            pid=self._pid,
            tid=threading.get_ident(),
        )
        with self._lock:
            self._counters.append(sample)

    def adopt(self, spans) -> None:
        """Record spans another process finished, under this thread's open span.

        The spans come from a fresh :class:`Tracer` in a forked child (the
        training worker), so their ids clash with this tracer's: each gets a
        new id, links between them are kept, and a root becomes a child of
        the span open on the calling thread.  Their ``pid`` and timestamps
        are left as recorded.
        """
        stack = self._thread_stack()
        parent = stack[-1] if stack else None
        ids = {span.span_id: next(self._ids) for span in spans}
        for span in spans:
            self._emit_span(
                replace(span, span_id=ids[span.span_id], parent_id=ids.get(span.parent_id, parent))
            )

    # ------------------------------------------------------------------ #
    def spans(self) -> list:
        """A snapshot copy of the spans recorded so far, adopted ones included."""
        with self._lock:
            return list(self._spans)

    def counter_samples(self) -> list:
        """A snapshot copy of the counter samples recorded so far."""
        with self._lock:
            return list(self._counters)


#: The process-wide installed tracer instrumentation reports to.
_NULL_TRACER = NullTracer()
_CURRENT: Tracer | NullTracer = _NULL_TRACER


def current_tracer():
    """The tracer instrumented code is currently reporting to."""
    return _CURRENT


def install_tracer(tracer):
    """Make ``tracer`` the process-wide target of :func:`span` / :func:`counter`.

    Returns the tracer for chaining.
    """
    global _CURRENT
    _CURRENT = tracer
    return tracer


def uninstall_tracer() -> None:
    """Restore the default :class:`NullTracer` (tracing off)."""
    global _CURRENT
    _CURRENT = _NULL_TRACER


def tracing_enabled() -> bool:
    """Whether a real tracer is installed (skip expensive attribute building)."""
    return _CURRENT.enabled


def span(name: str, *, category: str = "run", **attributes):
    """Open a span on the installed tracer (a no-op context manager when off)."""
    return _CURRENT.span(name, category=category, **attributes)


def counter(name: str, value: float) -> None:
    """Record a counter sample on the installed tracer (no-op when off)."""
    _CURRENT.counter(name, value)
