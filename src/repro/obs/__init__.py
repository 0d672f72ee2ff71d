"""repro.obs — unified tracing and profiling for the DPO-AF pipeline.

The pipeline's wall clock disappears into training split across two
processes and LTL model checking over 15 specs; coarse counters cannot say
which pipeline stage, which training phase or which model-checker phase
(translation, product, search) dominates.  This package is the
instrumentation layer every other subsystem reports into:

``tracer``
    Structured :class:`Span`\\ s (name, category, start/duration, parent,
    attributes) opened with the :func:`span` context-manager helper.  The
    *installed* tracer is process-global: a :class:`NullTracer` by default —
    tracing off, near-zero overhead, results bitwise-identical to an
    uninstrumented run — or a real :class:`Tracer` installed with
    :func:`install_tracer`.  The training worker's spans come back in its
    replies and :meth:`Tracer.adopt` files them under the parent's open
    span, so its work is attributed like the caller's.

``metrics``
    :class:`MetricsRegistry` — snapshot-shaped *providers*
    (:class:`~repro.serving.metrics.ServingMetrics`,
    :func:`~repro.obs.metrics.process_usage_provider`), collapsed by one
    ``snapshot()`` into the whole run's telemetry dict.

``export``
    Chrome/Perfetto trace-event JSON (:func:`write_chrome_trace` /
    :func:`load_chrome_trace`) — load the file in https://ui.perfetto.dev
    for the full timeline.

``report``
    Terminal summaries: the stage breakdown (:func:`stage_breakdown`, which
    counts the model checker's spans beside the pipeline's, serving's and
    training's) and the serving summary line
    (:func:`format_serving_summary`) shared by the CLI and the pipeline.

``cli``
    The ``repro-trace report`` console script.

Enable tracing with ``PipelineConfig(trace_path=...)`` or ``repro-serve
--trace PATH``; see ``docs/observability.md`` for the span model and how to
read a paper-scale trace.
"""

from repro.obs.export import (
    chrome_trace_events,
    counters_from_trace,
    load_chrome_trace,
    spans_from_trace,
    write_chrome_trace,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import (
    format_report,
    format_serving_summary,
    report_from_trace,
    stage_breakdown,
)
from repro.obs.tracer import (
    CounterSample,
    NullTracer,
    Span,
    Tracer,
    counter,
    current_tracer,
    install_tracer,
    span,
    tracing_enabled,
    uninstall_tracer,
)

__all__ = [
    "Span",
    "CounterSample",
    "Tracer",
    "NullTracer",
    "current_tracer",
    "install_tracer",
    "uninstall_tracer",
    "tracing_enabled",
    "span",
    "counter",
    "MetricsRegistry",
    "chrome_trace_events",
    "write_chrome_trace",
    "load_chrome_trace",
    "spans_from_trace",
    "counters_from_trace",
    "format_report",
    "format_serving_summary",
    "report_from_trace",
    "stage_breakdown",
]
