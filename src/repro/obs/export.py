"""Chrome/Perfetto trace-event export of recorded spans.

The JSON object format understood by ``chrome://tracing``, `Perfetto
<https://ui.perfetto.dev>`_ and ``speedscope``::

    {
        "traceEvents": [
            {"name": ..., "cat": ..., "ph": "X", "ts": µs, "dur": µs,
             "pid": ..., "tid": ..., "args": {...}},
            {"name": ..., "ph": "C", "ts": µs, "pid": ...,
             "args": {"value": ...}},
            ...
        ],
        "otherData": {"schema": ..., "metrics": {...}, "host": {...}},
        "displayTimeUnit": "ms",
    }

Spans become complete (``"X"``) events and counter samples become counter
(``"C"``) events.  Timestamps are rebased to the earliest event — Perfetto
dislikes raw multi-hour ``CLOCK_MONOTONIC`` offsets — and emitted sorted, so
consumers can rely on monotonically non-decreasing ``ts``.  The span's id,
parent id and attributes travel in ``args``, so :func:`spans_from_trace`
rebuilds the recorded spans, nesting included, from an exported file.
``otherData.host`` records the facts a trace's timings are read against
(:func:`host_facts`).
"""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path

from repro.obs.tracer import CounterSample, Span

#: Trace-format version stamped into ``otherData`` (bump on shape changes).
TRACE_SCHEMA = 1

#: The BLAS thread variables: the thread count changes both the speed and,
#: through the summation order, the numbers of a run.
BLAS_THREAD_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def host_facts() -> dict:
    """Usable cores, Python, NumPy, the BLAS and its thread variables.

    The facts perfbench prints with every run, so timings from two traces
    can be compared only when these agree.
    """
    import numpy as np  # deferred: nothing else in repro.obs loads NumPy

    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - platforms without affinity
        cores = os.cpu_count() or 1
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": cores,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "env": {name: os.environ.get(name) for name in BLAS_THREAD_ENV},
    }


def chrome_trace_events(spans, counter_samples=()) -> list:
    """Spans + counter samples as a ``ts``-sorted Chrome trace-event list.

    Timestamps are rebased so the earliest event starts at 0 µs; sub-
    microsecond durations are floored to 1 µs so no event renders as
    zero-width.
    """
    spans = list(spans)
    counter_samples = list(counter_samples)
    starts = [s.start_ns for s in spans] + [c.timestamp_ns for c in counter_samples]
    base_ns = min(starts) if starts else 0
    events = []
    for s in spans:
        events.append(
            {
                "name": s.name,
                "cat": s.category,
                "ph": "X",
                "ts": (s.start_ns - base_ns) / 1000.0,
                "dur": max(s.duration_ns / 1000.0, 1.0),
                "pid": s.pid,
                "tid": s.tid,
                "args": {
                    "span_id": s.span_id,
                    "parent_id": s.parent_id,
                    **s.attributes,
                },
            }
        )
    for c in counter_samples:
        events.append(
            {
                "name": c.name,
                "ph": "C",
                "ts": (c.timestamp_ns - base_ns) / 1000.0,
                "pid": c.pid,
                "args": {"value": c.value},
            }
        )
    events.sort(key=lambda event: event["ts"])
    return events


def write_chrome_trace(path, tracer, *, metrics: dict | None = None) -> Path:
    """Export ``tracer``'s spans and counter samples to ``path``.

    ``metrics`` — typically a :meth:`~repro.obs.metrics.MetricsRegistry.
    snapshot` — lands in ``otherData`` beside :func:`host_facts`, so one
    file carries the timeline, the run's aggregate telemetry and the host it
    ran on.  Written atomically (tmp + ``os.replace``), so a crash
    mid-export never leaves a truncated trace.  Returns the path written.
    """
    events = chrome_trace_events(tracer.spans(), tracer.counter_samples())
    document = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"schema": TRACE_SCHEMA, "metrics": metrics or {}, "host": host_facts()},
    }
    from repro.utils.atomic import write_text_atomic

    path = Path(path)
    write_text_atomic(path, json.dumps(document))
    return path


def load_chrome_trace(path) -> dict:
    """Load an exported trace, validating the minimal structure.

    Raises ``ValueError`` on anything that is not a trace-event JSON object
    with a ``traceEvents`` list — the report CLI turns that into a clean
    error message instead of a stack trace.
    """
    try:
        document = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(document, dict) or not isinstance(document.get("traceEvents"), list):
        raise ValueError(f"{path}: not a Chrome trace-event file (no traceEvents list)")
    return document


def spans_from_trace(document: dict) -> list:
    """Rebuild :class:`~repro.obs.tracer.Span` objects from a loaded trace.

    The inverse of :func:`chrome_trace_events` for ``"X"`` events (counter
    events are skipped); used by the report CLI to aggregate an exported
    file with the same code that aggregates live tracer spans.
    """
    spans = []
    for event in document.get("traceEvents", []):
        if event.get("ph") != "X":
            continue
        args = dict(event.get("args") or {})
        span_id = args.pop("span_id", 0)
        parent_id = args.pop("parent_id", None)
        spans.append(
            Span(
                name=event.get("name", ""),
                category=event.get("cat", ""),
                start_ns=int(event.get("ts", 0) * 1000),
                duration_ns=int(event.get("dur", 0) * 1000),
                pid=event.get("pid", 0),
                tid=event.get("tid", 0),
                span_id=span_id,
                parent_id=parent_id,
                attributes=args,
            )
        )
    return spans


def counters_from_trace(document: dict) -> list:
    """Rebuild :class:`~repro.obs.tracer.CounterSample` objects from a trace."""
    samples = []
    for event in document.get("traceEvents", []):
        if event.get("ph") != "C":
            continue
        samples.append(
            CounterSample(
                name=event.get("name", ""),
                value=float((event.get("args") or {}).get("value", 0.0)),
                timestamp_ns=int(event.get("ts", 0) * 1000),
                pid=event.get("pid", 0),
                tid=event.get("tid", 0),
            )
        )
    return samples
