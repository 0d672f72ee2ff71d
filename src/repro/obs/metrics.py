"""One registry for a run's gauges and snapshot-shaped telemetry providers.

A :class:`MetricsRegistry` holds named :class:`Gauge` instruments (the jobs
daemon's queue depth, per-state and per-client inflight counts) and lets
existing snapshot-shaped telemetry *register as a provider*
(:meth:`MetricsRegistry.register_provider`) — a named callable returning a
JSON-friendly dict, such as
:meth:`~repro.serving.metrics.ServingMetrics.snapshot`.  One
:meth:`MetricsRegistry.snapshot` then yields the whole run's telemetry in a
single dict: the pipeline and the ``repro-serve`` CLI embed it in the Chrome
trace's ``otherData``, and the CLI prints its summary from it.

Gauges are thread-safe; they are not process-safe (worker-process timings
travel as trace spans, not registry updates).
"""

from __future__ import annotations

import threading


class Gauge:
    """A point-in-time value that can move both ways (queue depth, buffer fill)."""

    def __init__(self, name: str):
        self.name = name
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        """Record the current value."""
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        """The last recorded value."""
        with self._lock:
            return self._value


class MetricsRegistry:
    """Names and snapshots every gauge and telemetry provider of a run.

    Gauges are created on first use (``registry.gauge("x")`` twice returns
    the same object); providers are snapshot-shaped callables —
    ``ServingMetrics.snapshot`` — registered under a unique name.
    :meth:`snapshot` merges everything into one dict.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._gauges: dict = {}
        self._providers: dict = {}

    # ------------------------------------------------------------------ #
    def gauge(self, name: str) -> Gauge:
        """Get (or create) the :class:`Gauge` named ``name``."""
        with self._lock:
            if name not in self._gauges:
                self._gauges[name] = Gauge(name)
            return self._gauges[name]

    def register_provider(self, name: str, provider) -> None:
        """Attach a named telemetry source: a callable returning a dict.

        Re-registering a name replaces the previous provider, so a pipeline
        can refresh a provider across runs without accumulating stale ones.
        """
        with self._lock:
            self._providers[name] = provider

    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict:
        """One JSON-friendly dict covering every gauge and provider.

        Shape::

            {
                "gauges": {name: value, ...},
                <provider-name>: <provider dict>, ...
            }

        A provider that raises is reported as ``{"error": "..."}`` instead of
        poisoning the whole snapshot — telemetry must never take down the run
        it describes.
        """
        with self._lock:
            gauges = dict(self._gauges)
            providers = dict(self._providers)
        result: dict = {"gauges": {name: g.value for name, g in gauges.items()}}
        for name, provider in providers.items():
            try:
                result[name] = provider()
            except Exception as exc:
                result[name] = {"error": f"{type(exc).__name__}: {exc}"}
        return result
