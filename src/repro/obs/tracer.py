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
threads (the pipeline's producer/encoder/trainer stages) are roots of their
own thread's tree, distinguishable by ``tid``.

Crossing the process-pool boundary
----------------------------------
Worker processes cannot append to the parent's in-memory span list.  A
tracer constructed with ``shard_dir`` announces a directory for *per-PID
JSONL shards*: the serving layer forwards that directory to its worker
initializer (via :class:`~repro.serving.backends.WorkerPayload`), each worker
installs its own ``Tracer(jsonl_path=<shard_dir>/pid-<pid>.jsonl)``, and
every span is flushed to the shard the moment it closes.  The parent's
:meth:`Tracer.read_shards` merges the shards back when the trace is
exported, so process-backend verification work is attributed exactly like
serial or thread work.  Per-PID files mean no cross-process locking is ever
needed; ``time.perf_counter_ns`` is CLOCK_MONOTONIC-based on Linux, so
parent and worker timestamps share one timeline.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path


@dataclass(frozen=True)
class Span:
    """One finished, timed unit of work.

    ``start_ns`` / ``duration_ns`` are ``time.perf_counter_ns`` readings
    (monotonic; on Linux comparable across processes).  ``parent_id`` is the
    ``span_id`` of the span that was open on the same thread when this one
    started, or ``None`` for a root span.  ``attributes`` carry small
    JSON-serialisable values (spec names, batch sizes, backends).
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

    def to_record(self) -> dict:
        """JSON-friendly dict (the JSONL shard line shape)."""
        return {
            "kind": "span",
            "name": self.name,
            "category": self.category,
            "start_ns": self.start_ns,
            "duration_ns": self.duration_ns,
            "pid": self.pid,
            "tid": self.tid,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "attributes": self.attributes,
        }

    @classmethod
    def from_record(cls, record: dict) -> "Span":
        """Rebuild a span from :meth:`to_record` output (shard merging)."""
        return cls(
            name=record["name"],
            category=record["category"],
            start_ns=int(record["start_ns"]),
            duration_ns=int(record["duration_ns"]),
            pid=int(record["pid"]),
            tid=int(record["tid"]),
            span_id=int(record["span_id"]),
            parent_id=record.get("parent_id"),
            attributes=dict(record.get("attributes") or {}),
        )


@dataclass(frozen=True)
class CounterSample:
    """One sampled value of a named counter (a queue depth, a buffer fill)."""

    name: str
    value: float
    timestamp_ns: int
    pid: int
    tid: int

    def to_record(self) -> dict:
        """JSON-friendly dict (the JSONL shard line shape)."""
        return {
            "kind": "counter",
            "name": self.name,
            "value": self.value,
            "timestamp_ns": self.timestamp_ns,
            "pid": self.pid,
            "tid": self.tid,
        }

    @classmethod
    def from_record(cls, record: dict) -> "CounterSample":
        """Rebuild a sample from :meth:`to_record` output (shard merging)."""
        return cls(
            name=record["name"],
            value=float(record["value"]),
            timestamp_ns=int(record["timestamp_ns"]),
            pid=int(record["pid"]),
            tid=int(record["tid"]),
        )


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
    shard_dir = None

    def span(self, name: str, *, category: str = "run", **attributes) -> _NullSpan:
        """Return the shared no-op span context manager."""
        return _NULL_SPAN

    def counter(self, name: str, value: float) -> None:
        """Discard the sample (tracing is disabled)."""

    def close(self) -> None:
        """Nothing to release."""


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
    """Collects spans and counter samples for one process.

    Parameters
    ----------
    jsonl_path:
        When set, every finished span / counter sample is additionally
        appended (and flushed) to this JSONL file the moment it lands — the
        per-PID shard a worker process writes so the parent can attribute its
        work.
    shard_dir:
        When set, announces the directory worker *processes* should write
        their per-PID shards into; the serving layer forwards it through
        :class:`~repro.serving.backends.WorkerPayload` and
        :meth:`read_shards` merges the shards back at export time.

    Thread-safe: spans may open and close concurrently on any number of
    threads; nesting is tracked per thread.
    """

    enabled = True

    def __init__(self, *, jsonl_path: str | Path | None = None, shard_dir: str | Path | None = None):
        self._spans: list = []
        self._counters: list = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._pid = os.getpid()
        self.shard_dir = Path(shard_dir) if shard_dir is not None else None
        if self.shard_dir is not None:
            self.shard_dir.mkdir(parents=True, exist_ok=True)
        self.jsonl_path = Path(jsonl_path) if jsonl_path is not None else None
        self._jsonl_file = None
        if self.jsonl_path is not None:
            self.jsonl_path.parent.mkdir(parents=True, exist_ok=True)
            self._jsonl_file = self.jsonl_path.open("a")

    @classmethod
    def for_trace_file(cls, trace_path: str | Path) -> "Tracer":
        """A parent-process tracer whose worker shards live next to ``trace_path``.

        The shard directory is ``<trace_path>.shards/``; exporting with
        :func:`repro.obs.export.write_chrome_trace` merges the shards into the
        final trace automatically.
        """
        trace_path = Path(trace_path)
        return cls(shard_dir=trace_path.with_name(trace_path.name + ".shards"))

    # ------------------------------------------------------------------ #
    def _thread_stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _emit_span(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)
            if self._jsonl_file is not None:
                self._jsonl_file.write(json.dumps(span.to_record()) + "\n")
                self._jsonl_file.flush()

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
            if self._jsonl_file is not None:
                self._jsonl_file.write(json.dumps(sample.to_record()) + "\n")
                self._jsonl_file.flush()

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
        """A snapshot copy of the spans recorded in this process so far."""
        with self._lock:
            return list(self._spans)

    def counter_samples(self) -> list:
        """A snapshot copy of the counter samples recorded so far."""
        with self._lock:
            return list(self._counters)

    def read_shards(self) -> tuple:
        """Merge worker-process shards: ``(spans, counter_samples)``.

        Reads every ``*.jsonl`` file in ``shard_dir`` (empty lists when no
        shard dir is configured or nothing was written).  Shards are left in
        place — workers may still be appending — so callers combine the
        result with :meth:`spans` fresh at each export rather than mutating
        tracer state.
        """
        if self.shard_dir is None or not self.shard_dir.is_dir():
            return [], []
        spans: list = []
        counters: list = []
        for shard in sorted(self.shard_dir.glob("*.jsonl")):
            try:
                text = shard.read_text()
            except OSError:
                continue
            for line in text.splitlines():
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                    if record.get("kind") == "counter":
                        counters.append(CounterSample.from_record(record))
                    else:
                        spans.append(Span.from_record(record))
                except (ValueError, KeyError, TypeError):
                    continue  # a torn final line from a dying worker
        return spans, counters

    def all_spans(self) -> list:
        """This process's spans plus every worker shard's, one flat list."""
        shard_spans, _ = self.read_shards()
        return self.spans() + shard_spans

    def close(self) -> None:
        """Flush and close the JSONL sink (if any).  Idempotent."""
        with self._lock:
            jsonl_file, self._jsonl_file = self._jsonl_file, None
        if jsonl_file is not None:
            jsonl_file.close()


#: The process-wide installed tracer instrumentation reports to.
_NULL_TRACER = NullTracer()
_CURRENT: Tracer | NullTracer = _NULL_TRACER


def current_tracer():
    """The tracer instrumented code is currently reporting to."""
    return _CURRENT


def install_tracer(tracer):
    """Make ``tracer`` the process-wide target of :func:`span` / :func:`counter`.

    Returns the tracer for chaining.  Install *before* constructing the
    components to trace — the serving layer captures the tracer's
    ``shard_dir`` into its worker payload at service construction.
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
