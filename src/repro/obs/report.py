"""Human-readable summaries of a recorded trace.

The raw product of a traced run is a Chrome trace-event file — great in
Perfetto, useless on a terminal.  This module turns spans (live tracer
objects or an exported file) into the aggregates that say where a run's
time went:

* **stage breakdown** — total wall clock and span count per span name, over
  the pipeline, serving, training, jobs, LM and model-checker spans;
* **serving summary** — the cache/dedup line, formatted from a metrics
  snapshot so the CLI and the pipeline report through one code path;
* **process summary** — minor page faults and peak RSS of the run's process
  and of its reaped training workers.

:func:`format_report` renders all of it; the ``repro-trace`` CLI
(:mod:`repro.obs.cli`) is a thin wrapper around these functions.
"""

from __future__ import annotations


def stage_breakdown(spans) -> dict:
    """Total seconds and span count per stage span name.

    Aggregates spans in the ``"pipeline"``, ``"serving"``, ``"train"``,
    ``"jobs"``, ``"lm"`` and ``"modelcheck"`` categories — the stages whose
    sum explains where the run's wall clock went, and the model checker's
    construction, product and search inside scoring.  Returns
    ``{name: {"seconds": float, "count": int}}``.
    """
    breakdown: dict = {}
    for span in spans:
        if span.category not in ("pipeline", "serving", "train", "jobs", "lm", "modelcheck"):
            continue
        entry = breakdown.setdefault(span.name, {"seconds": 0.0, "count": 0})
        entry["seconds"] += span.duration_seconds
        entry["count"] += 1
    return breakdown


def format_serving_summary(snapshot: dict) -> str:
    """The end-of-run serving telemetry line from a metrics snapshot.

    ``snapshot`` is :meth:`ServingMetrics.snapshot
    <repro.serving.metrics.ServingMetrics.snapshot>` output (typically read
    out of a :meth:`MetricsRegistry.snapshot
    <repro.obs.metrics.MetricsRegistry.snapshot>` under the ``"serving"``
    key) — the single formatting path for the ``repro-serve`` CLI and any
    other consumer of run telemetry.
    """
    return (
        f"scored {snapshot['jobs']} responses ({snapshot['unique_jobs']} unique) "
        f"in {snapshot['total_seconds']:.2f}s — "
        f"{snapshot['throughput']:.1f} responses/s, "
        f"hit rate {snapshot['hit_rate']:.0%}, dedup rate {snapshot['dedup_rate']:.0%}"
    )


def format_process_summary(snapshot: dict) -> str:
    """One line from a :func:`process_usage_provider
    <repro.obs.metrics.process_usage_provider>` snapshot (the ``"process"``
    key of a metrics snapshot)."""
    own, children = snapshot["self"], snapshot["children"]
    return (
        f"self: {own['minor_faults']:,} minor faults, peak RSS {own['peak_rss_mb']:.1f} MB; "
        f"reaped children: {children['minor_faults']:,} minor faults, "
        f"peak RSS {children['peak_rss_mb']:.1f} MB"
    )


def _format_table(title: str, header, rows) -> list:
    lines = [f"== {title} ==", " | ".join(f"{h:>14}" for h in header)]
    for row in rows:
        cells = [f"{cell:>14.4f}" if isinstance(cell, float) else f"{str(cell):>14}" for cell in row]
        lines.append(" | ".join(cells))
    return lines


def format_report(spans, *, metrics: dict | None = None, counter_samples=()) -> str:
    """Render the full text report for a set of spans.

    Sections: stage breakdown (wall clock per stage), dispatcher queue-depth
    statistics from counter samples, and — when a metrics snapshot is
    supplied — the serving and process summary lines.
    """
    spans = list(spans)
    lines: list = []

    breakdown = stage_breakdown(spans)
    if breakdown:
        rows = [
            (name, entry["count"], entry["seconds"])
            for name, entry in sorted(breakdown.items(), key=lambda item: -item[1]["seconds"])
        ]
        lines += _format_table("stage breakdown", ("stage", "spans", "seconds"), rows)

    queue_samples = [c.value for c in counter_samples if c.name == "dispatcher.queue_depth"]
    if queue_samples:
        lines.append("")
        lines.append(
            f"== dispatcher ==\nqueue depth: max {max(queue_samples):.0f}, "
            f"mean {sum(queue_samples) / len(queue_samples):.2f} "
            f"over {len(queue_samples)} samples"
        )

    serving = (metrics or {}).get("serving")
    if serving:
        lines.append("")
        lines.append("== serving ==")
        lines.append(format_serving_summary(serving))

    process = (metrics or {}).get("process")
    if process:
        lines.append("")
        lines.append("== process ==")
        lines.append(format_process_summary(process))

    if not lines:
        return "(empty trace: no spans recorded)"
    return "\n".join(lines)


def report_from_trace(document: dict) -> str:
    """:func:`format_report` over a loaded Chrome trace-event document."""
    from repro.obs.export import counters_from_trace, spans_from_trace

    metrics = (document.get("otherData") or {}).get("metrics") or {}
    return format_report(
        spans_from_trace(document),
        metrics=metrics,
        counter_samples=counters_from_trace(document),
    )
