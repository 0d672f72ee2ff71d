"""Throughput, latency and cache telemetry for the feedback service.

The counters accumulate over the life of one :class:`~repro.serving.scheduler.
FeedbackService`; ``snapshot()`` collapses them into a JSON-friendly dict that
the pipeline attaches to :class:`~repro.core.pipeline.PipelineResult` so a run
reports how much verification work the cache and dedup layers absorbed.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field


@dataclass
class ServingMetrics:
    """Accumulated telemetry for batched feedback scoring.

    Mutation is lock-guarded: batches recorded on the dispatcher thread and
    on direct ``score_batch`` callers fold into the same counters, so
    unsynchronised ``+=`` updates could lose increments.  ``snapshot()``
    takes the same lock, so it never observes a batch half-recorded.
    """

    batches: int = 0
    jobs: int = 0                  # responses submitted (after fan-in, before dedup)
    unique_jobs: int = 0           # distinct canonical jobs per batch, summed
    cache_hits: int = 0            # unique jobs answered from the cache
    cache_misses: int = 0          # unique jobs that required verification
    uncached_jobs: int = 0         # jobs scored with serving disabled (no cache lookups)
    warm_start_entries: int = 0    # entries retained from a shared cache directory
    total_seconds: float = 0.0
    _lock: threading.RLock = field(default_factory=threading.RLock, repr=False, compare=False)

    # ------------------------------------------------------------------ #
    def record_batch(
        self, *, jobs: int, unique: int, hits: int, misses: int, seconds: float, uncached: int = 0
    ) -> None:
        """Fold one ``score_batch`` call into the running totals.

        ``uncached`` counts jobs the disabled-serving reference path scored
        without ever consulting the cache — those are *not* misses, and must
        not drag ``hit_rate`` / ``dedup_rate`` below what the cache actually
        did.
        """
        with self._lock:
            self.batches += 1
            self.jobs += jobs
            self.unique_jobs += unique
            self.cache_hits += hits
            self.cache_misses += misses
            self.uncached_jobs += uncached
            self.total_seconds += seconds

    def record_warm_start(self, entries: int) -> None:
        """Count entries adopted from a shared cache directory at startup."""
        with self._lock:
            self.warm_start_entries += entries

    # ------------------------------------------------------------------ #
    @property
    def hit_rate(self) -> float:
        """Fraction of unique jobs answered without re-verification."""
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    @property
    def dedup_rate(self) -> float:
        """Fraction of submitted jobs removed as within-batch duplicates."""
        if self.jobs == 0:
            return 0.0
        return 1.0 - self.unique_jobs / self.jobs

    @property
    def throughput(self) -> float:
        """Responses scored per second, amortised over every batch."""
        return self.jobs / self.total_seconds if self.total_seconds > 0 else 0.0

    @property
    def mean_batch_latency(self) -> float:
        return self.total_seconds / self.batches if self.batches else 0.0

    def snapshot(self) -> dict:
        """JSON-friendly view of the counters and derived rates."""
        with self._lock:
            return {
                "batches": self.batches,
                "jobs": self.jobs,
                "unique_jobs": self.unique_jobs,
                "cache_hits": self.cache_hits,
                "cache_misses": self.cache_misses,
                "uncached_jobs": self.uncached_jobs,
                "warm_start_entries": self.warm_start_entries,
                "total_seconds": self.total_seconds,
                "hit_rate": self.hit_rate,
                "dedup_rate": self.dedup_rate,
                "throughput": self.throughput,
                "mean_batch_latency": self.mean_batch_latency,
            }
