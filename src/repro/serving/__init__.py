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
    An in-memory LRU result cache keyed by ``(scenario, SHA-256 digest of the
    canonical response)`` (:class:`~repro.serving.cache.FeedbackCache`).
    Everything else a score depends on (the specifications, the feedback
    mode, the seed and each scenario's world model) is fixed for a service's
    lifetime, and nothing is persisted across runs.
``scheduler``
    :class:`~repro.serving.scheduler.FeedbackService` — accepts batches of
    :class:`~repro.serving.scheduler.FeedbackJob`, partitions cache hits from
    misses, scores the misses inline with one
    :class:`~repro.serving.scheduler.ResponseScorer`, and scatters scores
    back in deterministic submission order.  World models, formal verifiers
    and empirical evaluators are constructed once per scenario, not once per
    response.  Besides synchronous ``score_batch`` (what the pipeline and the
    one-shot CLI call), ``submit_batch`` queues a batch and returns a
    :class:`~repro.serving.scheduler.PendingBatch` handle; collecting it
    scores the queued batches in submission order on the collecting
    thread, so scores stay bitwise-identical to the synchronous path.  A
    service starts no thread.  The jobs daemon's
    :class:`~repro.serving.scheduler.Dispatcher` runs each key's calls in
    submission order and rotates round-robin between keys.
``metrics``
    Throughput / latency / hit-rate telemetry
    (:class:`~repro.serving.metrics.ServingMetrics`), surfaced on
    :class:`~repro.core.pipeline.PipelineResult` as ``serving_metrics``.

Scores produced with serving enabled are bitwise-identical to the serial
reference path (``ServingConfig(enabled=False)``): the cache key covers every
input that varies within a service, and canonicalisation only discards
whitespace the step parser provably ignores.
"""

from repro.serving.cache import FeedbackCache, cache_key
from repro.serving.config import ServingConfig
from repro.serving.dedup import canonicalize_response
from repro.serving.metrics import ServingMetrics
from repro.serving.scheduler import (
    Dispatcher,
    FeedbackJob,
    FeedbackService,
    PendingBatch,
    ResponseScorer,
)

__all__ = [
    "FeedbackCache",
    "cache_key",
    "ResponseScorer",
    "ServingConfig",
    "canonicalize_response",
    "ServingMetrics",
    "Dispatcher",
    "FeedbackJob",
    "FeedbackService",
    "PendingBatch",
]
