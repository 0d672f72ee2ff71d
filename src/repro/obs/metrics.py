"""One registry for a run's snapshot-shaped telemetry providers.

A :class:`MetricsRegistry` lets snapshot-shaped telemetry *register as a
provider* (:meth:`MetricsRegistry.register_provider`) — a named callable
returning a JSON-friendly dict, such as
:meth:`~repro.serving.metrics.ServingMetrics.snapshot`.  One
:meth:`MetricsRegistry.snapshot` then yields the whole run's telemetry in a
single dict: the pipeline and the ``repro-serve`` CLI embed it in the Chrome
trace's ``otherData``, and the CLI prints its summary from it.

The registry is thread-safe; it is not process-safe (worker-process timings
travel as trace spans, not registry updates).
"""

from __future__ import annotations

import threading


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
