"""Human-readable summaries of a recorded trace.

The raw product of a traced run is a Chrome trace-event file — great in
Perfetto, useless on a terminal.  This module turns spans (live tracer
objects or an exported file) into the aggregates an engineer attacking the
verification hot path actually wants:

* **stage breakdown** — total wall clock per pipeline/serving stage span;
* **per-spec model-checker profile** — for every LTL specification, how much
  time went into LTL→Büchi construction, product exploration and the
  accepting-cycle emptiness check, and the *top-k hottest specs* ranking that
  tells you which of the 15 rules to optimise first;
* **serving summary** — the cache/dedup line, formatted from a metrics
  snapshot so the CLI and the pipeline report through one code path;
* **process summary** — minor page faults and peak RSS of the run's process
  and of its reaped training workers.

:func:`format_report` renders all of it; the ``repro-trace`` CLI
(:mod:`repro.obs.cli`) is a thin wrapper around these functions.
"""

from __future__ import annotations

#: Span names the model checker emits, in reporting order.  The ``_cached``
#: variants mark construction-memo and result-cache hits — near-zero-duration
#: spans whose *count* is the interesting signal (they would misattribute
#: time if folded into their uncached twins).
MODELCHECK_PHASES = (
    "mc.construct",
    "mc.construct_cached",
    "mc.product",
    "mc.check",
    "mc.check_cached",
)


def stage_breakdown(spans) -> dict:
    """Total seconds and span count per stage span name.

    Aggregates spans in the ``"pipeline"``, ``"serving"``, ``"train"``,
    ``"jobs"`` and ``"lm"`` categories — the coarse stages whose sum explains
    where the run's wall clock went.  Returns
    ``{name: {"seconds": float, "count": int}}``.
    """
    breakdown: dict = {}
    for span in spans:
        if span.category not in ("pipeline", "serving", "train", "jobs", "lm"):
            continue
        entry = breakdown.setdefault(span.name, {"seconds": 0.0, "count": 0})
        entry["seconds"] += span.duration_seconds
        entry["count"] += 1
    return breakdown


def per_spec_profile(spans) -> dict:
    """Aggregate model-checker spans by specification.

    Every ``mc.*`` phase span (:data:`MODELCHECK_PHASES`) carries a ``spec``
    attribute naming the specification it served (workers included — their
    spans arrive via shard merge).  Returns::

        {spec_name: {"construct": s, "construct_cached": s, "product": s,
                     "check": s, "check_cached": s, "total": s,
                     "checks": n, "cache_hits": n}}

    where ``checks`` counts completed emptiness checks (one per controller ×
    spec verification) and ``cache_hits`` counts checks answered from the
    construction memo, a checker's result cache or a verifier's verdict
    cache (``mc.construct_cached`` + ``mc.check_cached`` spans).
    """
    profile: dict = {}
    for span in spans:
        if span.name not in MODELCHECK_PHASES:
            continue
        spec = span.attributes.get("spec")
        if spec is None:
            continue
        entry = profile.setdefault(
            spec,
            {
                "construct": 0.0,
                "construct_cached": 0.0,
                "product": 0.0,
                "check": 0.0,
                "check_cached": 0.0,
                "total": 0.0,
                "checks": 0,
                "cache_hits": 0,
            },
        )
        phase = span.name.split(".", 1)[1]
        entry[phase] += span.duration_seconds
        entry["total"] += span.duration_seconds
        if span.name == "mc.check":
            entry["checks"] += 1
        elif span.name in ("mc.construct_cached", "mc.check_cached"):
            entry["cache_hits"] += 1
        if span.name == "mc.check_cached":
            entry["checks"] += 1
    return profile


def hottest_specs(profile: dict, k: int = 5) -> list:
    """The ``k`` most expensive specs, ``(name, entry)`` by descending total.

    Ties break alphabetically so the ranking is deterministic run to run.
    """
    return sorted(profile.items(), key=lambda item: (-item[1]["total"], item[0]))[:k]


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


def format_report(spans, *, metrics: dict | None = None, counter_samples=(), top: int = 5) -> str:
    """Render the full text report for a set of spans.

    Sections: stage breakdown (wall clock per stage), the top-``top`` hottest
    LTL specs with per-phase (construction / product / emptiness-check)
    timings, dispatcher queue-depth statistics from counter samples, and —
    when a metrics snapshot is supplied — the serving and process summary
    lines.
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

    profile = per_spec_profile(spans)
    if profile:
        rows = [
            (
                name,
                entry["checks"],
                entry["cache_hits"],
                entry["construct"],
                entry["product"],
                entry["check"],
                entry["total"],
            )
            for name, entry in hottest_specs(profile, top)
        ]
        lines.append("")
        lines += _format_table(
            f"hottest specs (top {min(top, len(profile))} of {len(profile)})",
            ("spec", "checks", "cached", "construct_s", "product_s", "check_s", "total_s"),
            rows,
        )

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


def report_from_trace(document: dict, *, top: int = 5) -> str:
    """:func:`format_report` over a loaded Chrome trace-event document."""
    from repro.obs.export import counters_from_trace, spans_from_trace

    metrics = (document.get("otherData") or {}).get("metrics") or {}
    return format_report(
        spans_from_trace(document),
        metrics=metrics,
        counter_samples=counters_from_trace(document),
        top=top,
    )
