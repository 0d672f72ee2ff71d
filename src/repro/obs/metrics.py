"""One registry for every counter, gauge and histogram a run produces.

Before this module each subsystem kept its own telemetry island —
:class:`~repro.serving.metrics.ServingMetrics` counters on the feedback
service, ``Dispatcher.queued_batches`` polled by nobody.  A :class:`MetricsRegistry`
federates them: instruments created through :meth:`MetricsRegistry.counter` /
:meth:`~MetricsRegistry.gauge` / :meth:`~MetricsRegistry.histogram` live in
the registry, and existing snapshot-shaped telemetry *registers as a
provider* (:meth:`MetricsRegistry.register_provider`) — a named callable
returning a JSON-friendly dict.  One :meth:`MetricsRegistry.snapshot` then
yields the whole run's telemetry in a single dict, which is what the
pipeline attaches to its result, the ``repro-serve`` CLI prints its summary
from, and the trace exporter embeds in the Chrome trace's ``otherData``.

All instruments are thread-safe; none are process-safe (worker-process
timings travel as trace spans, not registry updates).
"""

from __future__ import annotations

import threading


class Counter:
    """A monotonically increasing count (events, jobs, retries)."""

    def __init__(self, name: str):
        self.name = name
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (default 1) to the count."""
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        """The current count."""
        with self._lock:
            return self._value


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

    def inc(self, amount: float = 1.0) -> None:
        """Shift the gauge by ``amount`` (negative to decrease)."""
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        """The last recorded value."""
        with self._lock:
            return self._value


class Histogram:
    """Summary statistics of observed values (durations, sizes).

    Keeps count/total/min/max — enough for mean latency and hot-spot ranking
    without unbounded storage.  ``summary()`` is the JSON-friendly view.
    """

    def __init__(self, name: str):
        self.name = name
        self._lock = threading.Lock()
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        """Fold one observation into the summary."""
        value = float(value)
        with self._lock:
            self.count += 1
            self.total += value
            self.min = value if self.min is None else min(self.min, value)
            self.max = value if self.max is None else max(self.max, value)

    @property
    def mean(self) -> float:
        """Arithmetic mean of the observations (0.0 before the first)."""
        with self._lock:
            return self.total / self.count if self.count else 0.0

    def summary(self) -> dict:
        """JSON-friendly ``{count, total, mean, min, max}`` view."""
        with self._lock:
            mean = self.total / self.count if self.count else 0.0
            return {
                "count": self.count,
                "total": self.total,
                "mean": mean,
                "min": self.min,
                "max": self.max,
            }


class MetricsRegistry:
    """Names and snapshots every instrument and telemetry provider of a run.

    Instruments are created on first use (``registry.counter("x")`` twice
    returns the same object); providers are snapshot-shaped callables —
    ``ServingMetrics.snapshot``, a dispatcher queue-depth reader — registered
    under a unique name.
    :meth:`snapshot` merges everything into one dict.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: dict = {}
        self._gauges: dict = {}
        self._histograms: dict = {}
        self._providers: dict = {}

    # ------------------------------------------------------------------ #
    def counter(self, name: str) -> Counter:
        """Get (or create) the :class:`Counter` named ``name``."""
        with self._lock:
            if name not in self._counters:
                self._counters[name] = Counter(name)
            return self._counters[name]

    def gauge(self, name: str) -> Gauge:
        """Get (or create) the :class:`Gauge` named ``name``."""
        with self._lock:
            if name not in self._gauges:
                self._gauges[name] = Gauge(name)
            return self._gauges[name]

    def histogram(self, name: str) -> Histogram:
        """Get (or create) the :class:`Histogram` named ``name``."""
        with self._lock:
            if name not in self._histograms:
                self._histograms[name] = Histogram(name)
            return self._histograms[name]

    def register_provider(self, name: str, provider) -> None:
        """Attach a named telemetry source: a callable returning a dict.

        Re-registering a name replaces the previous provider, so a pipeline
        can refresh a provider across runs without accumulating stale ones.
        """
        with self._lock:
            self._providers[name] = provider

    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict:
        """One JSON-friendly dict covering every instrument and provider.

        Shape::

            {
                "counters":   {name: value, ...},
                "gauges":     {name: value, ...},
                "histograms": {name: {count, total, mean, min, max}, ...},
                <provider-name>: <provider dict>, ...
            }

        A provider that raises is reported as ``{"error": "..."}`` instead of
        poisoning the whole snapshot — telemetry must never take down the run
        it describes.
        """
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
            providers = dict(self._providers)
        result: dict = {
            "counters": {name: c.value for name, c in counters.items()},
            "gauges": {name: g.value for name, g in gauges.items()},
            "histograms": {name: h.summary() for name, h in histograms.items()},
        }
        for name, provider in providers.items():
            try:
                result[name] = provider()
            except Exception as exc:
                result[name] = {"error": f"{type(exc).__name__}: {exc}"}
        return result
