"""One registry for a run's snapshot-shaped telemetry providers.

A :class:`MetricsRegistry` lets snapshot-shaped telemetry *register as a
provider* (:meth:`MetricsRegistry.register_provider`) — a named callable
returning a JSON-friendly dict, such as
:meth:`~repro.serving.metrics.ServingMetrics.snapshot`.  One
:meth:`MetricsRegistry.snapshot` then yields the whole run's telemetry in a
single dict: the pipeline and the ``repro-serve`` CLI embed it in the Chrome
trace's ``otherData``, and the CLI prints its summary from it.

The registry is thread-safe; it is not process-safe (worker-process timings
travel as trace spans, not registry updates).  What the kernel counts for a
process and its reaped children — minor page faults and peak resident set —
comes from :func:`process_usage_provider`.
"""

from __future__ import annotations

import resource
import sys
import threading

#: ``ru_maxrss`` is in bytes on macOS and in KiB elsewhere.
_MAXRSS_PER_MB = 1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0


def process_usage_provider():
    """A provider of this process's and its reaped children's memory counts.

    Its snapshot is ``{"self": {...}, "children": {...}}``, each with
    ``minor_faults`` — the minor page faults taken since this call — and
    ``peak_rss_mb``, the peak resident set since the process started (the
    kernel keeps no later mark).  ``children`` covers only children already
    reaped, such as a training worker once its loop has returned; its peak
    is the largest single child's.
    """
    who = {"self": resource.RUSAGE_SELF, "children": resource.RUSAGE_CHILDREN}
    start = {name: resource.getrusage(target).ru_minflt for name, target in who.items()}

    def snapshot() -> dict:
        usage = {name: resource.getrusage(target) for name, target in who.items()}
        return {
            name: {
                "minor_faults": usage[name].ru_minflt - start[name],
                "peak_rss_mb": usage[name].ru_maxrss / _MAXRSS_PER_MB,
            }
            for name in who
        }

    return snapshot


class MetricsRegistry:
    """Names and snapshots every telemetry provider of a run.

    Providers are snapshot-shaped callables — ``ServingMetrics.snapshot`` —
    registered under a unique name.  :meth:`snapshot` merges them into one
    dict.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._providers: dict = {}

    # ------------------------------------------------------------------ #
    def register_provider(self, name: str, provider) -> None:
        """Attach a named telemetry source: a callable returning a dict.

        Re-registering a name replaces the previous provider, so a pipeline
        can refresh a provider across runs without accumulating stale ones.
        """
        with self._lock:
            self._providers[name] = provider

    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict:
        """One JSON-friendly dict covering every provider.

        Shape::

            {<provider-name>: <provider dict>, ...}

        A provider that raises is reported as ``{"error": "..."}`` instead of
        poisoning the whole snapshot — telemetry must never take down the run
        it describes.
        """
        with self._lock:
            providers = dict(self._providers)
        result: dict = {}
        for name, provider in providers.items():
            try:
                result[name] = provider()
            except Exception as exc:
                result[name] = {"error": f"{type(exc).__name__}: {exc}"}
        return result
