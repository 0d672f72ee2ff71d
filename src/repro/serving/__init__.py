"""Batched, cached feedback serving for high-throughput controller verification.

Every stage of the DPO-AF loop — preference-pair collection, template
augmentation, checkpoint evaluation — reduces to the same primitive: *score a
language-model response against a scenario's rule book*.  Done inline, that
primitive rebuilds a GLM2FSA controller and re-runs the model checker (or
simulator) per call, so feedback cost scales with samples × tasks × epochs.
This package turns it into a standalone service with four layers:

``dedup``
    Score-preserving response canonicalisation, so the many identical
    responses a small model samples verify exactly once per batch
    (:func:`~repro.serving.dedup.canonicalize_response`).
``cache``
    A content-addressed LRU result cache keyed by a SHA-256 digest of
    ``(scenario, canonical response, feedback fingerprint, world-model
    digest)`` (:class:`~repro.serving.cache.FeedbackCache`), persisted across
    runs by a managed cache directory
    (:class:`~repro.serving.cache.CacheDirectory`, below).
``backends``
    The two execution strategies for scoring cache misses
    (:mod:`repro.serving.backends`): ``"serial"`` (the default inline
    reference loop) and ``"process"`` (a *persistent*
    :class:`~repro.serving.backends.WorkerPool` whose worker processes
    rebuild the verifier/world-model/evaluator stack once per process from a
    picklable :class:`~repro.serving.backends.WorkerPayload`, then stay alive
    across every batch the service scores — the fork/initializer cost is paid
    once per service, not once per cold batch).  Both return
    bitwise-identical scores in submission order; select one with
    ``ServingConfig(backend=...)``.
``scheduler``
    :class:`~repro.serving.scheduler.FeedbackService` — accepts batches of
    :class:`~repro.serving.scheduler.FeedbackJob`, partitions cache hits from
    misses, fans misses out to the configured backend, and scatters scores
    back in deterministic submission order.  World models, formal verifiers
    and empirical evaluators are constructed once per scenario, not once per
    response.  Besides synchronous ``score_batch``, ``submit_batch`` queues
    a batch on a dispatcher thread and returns a
    :class:`~repro.serving.scheduler.PendingBatch` future handle immediately,
    so a producer ranks one batch while the next verifies; batches execute
    in submission order, so scores stay bitwise-identical to the synchronous
    path.  Each service owns its dispatch thread, a
    :class:`~repro.serving.scheduler.Dispatcher`, which runs each key's
    calls in submission order and rotates round-robin between keys (the
    jobs daemon's per-client fairness).  Services own threads/processes
    once those paths are used; release them with ``close()`` or a ``with``
    block.
``metrics``
    Throughput / latency / hit-rate telemetry
    (:class:`~repro.serving.metrics.ServingMetrics`), surfaced on
    :class:`~repro.core.pipeline.PipelineResult` as ``serving_metrics``.

Cross-run shared cache layout
-----------------------------
``ServingConfig(shared_cache_dir="…")`` names a directory the pipeline, the
benchmarks and the ``repro-serve`` CLI can all share.  Each distinct feedback
fingerprint (mode + spec set + seed + package version) owns one shard
file::

    <shared_cache_dir>/
        <sha256(fingerprint)[:16]>.json     # {"schema", "fingerprint", "entries"}
        <…>.json.tmp.<pid>                  # in-flight atomic writes; never read
        <…>.json.lock                       # advisory flush locks; never read
        compact.lock                        # compaction's flock; never deleted

Services warm-start from their own shard at construction and merge results
back on ``flush()``; shards are written with tmp-file + ``os.replace``, so a
crash can never leave a partial shard, and corrupt, foreign or malformed
shards load as empty rather than serving stale scores.  Long-lived directories are bounded
by :meth:`CacheDirectory.compact <repro.serving.cache.CacheDirectory.compact>`
(run automatically at flush time when ``ServingConfig.shared_cache_max_entries``
/ ``shared_cache_max_bytes`` are set): shards are trimmed to their newest
entries, evicted whole oldest-write-first past the byte budget, and orphaned
lock/tmp litter is swept.  One compactor runs at a time, under a
non-blocking ``flock`` on ``compact.lock``.

Scores produced with serving enabled are bitwise-identical to the serial
reference path (``ServingConfig(enabled=False)``): the cache key covers every
input that can influence a score, and canonicalisation only discards
whitespace the step parser provably ignores.
"""

from repro.serving.backends import ResponseScorer, WorkerPayload, WorkerPool
from repro.serving.cache import (
    CacheDirectory,
    CompactionReport,
    FeedbackCache,
    cache_key,
    feedback_fingerprint,
)
from repro.serving.config import BACKENDS, ServingConfig
from repro.serving.dedup import canonicalize_response
from repro.serving.metrics import ServingMetrics
from repro.serving.scheduler import Dispatcher, FeedbackJob, FeedbackService, PendingBatch

__all__ = [
    "BACKENDS",
    "CacheDirectory",
    "CompactionReport",
    "FeedbackCache",
    "cache_key",
    "feedback_fingerprint",
    "ResponseScorer",
    "ServingConfig",
    "WorkerPayload",
    "WorkerPool",
    "canonicalize_response",
    "ServingMetrics",
    "Dispatcher",
    "FeedbackJob",
    "FeedbackService",
    "PendingBatch",
]
