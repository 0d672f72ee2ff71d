"""The batched feedback service: dedup → cache → worker pool → scatter.

:class:`FeedbackService` is the single entry point through which the pipeline
(and anything else) scores language-model responses.  A batch of ``(task,
response)`` jobs is canonicalised and deduplicated, cache hits are answered
immediately, and only the remaining unique misses are verified — serially
(the default) or on a persistent process pool (see
:mod:`repro.serving.backends`) — before results scatter back to the original
submission order.  World models, formal verifiers and empirical evaluators
are built once per scenario and reused across every batch (and, for the
process backend, once per worker process *for the service's whole lifetime*:
the :class:`~repro.serving.backends.WorkerPool` is forked lazily on the first
large cold batch and reused thereafter).  A ``shared_cache_dir`` of
per-fingerprint shards warm-starts the cache across runs.

Two submission styles share one execution path:

* :meth:`FeedbackService.score_batch` — synchronous, returns scores in
  submission order (the reference API);
* :meth:`FeedbackService.submit_batch` — the batch is queued on a single
  dispatcher thread and a :class:`PendingBatch` future handle is returned
  immediately, so a producer can rank task *k* while task *k+1* verifies.
  Batches are *executed* strictly in submission order on the one dispatcher
  thread, so the cache evolves exactly as it would under sequential
  ``score_batch`` calls — submitted scores are bitwise-identical to the
  synchronous ones, and draining handles in submission order is draining
  them in completion order.

Each service lazily creates, and owns, its :class:`Dispatcher`.  The
dispatcher runs the calls submitted under one key strictly in submission
order and rotates round-robin between keys; the jobs daemon builds its own
and submits each client's jobs under a per-client key, so a chatty client
cannot starve another.

A service owns OS resources once the submit or process paths are used
(dispatcher thread, worker processes); release them with
:meth:`FeedbackService.close` or by using the service as a context manager.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.obs import tracer as obs
from repro.serving.backends import ResponseScorer, WorkerPayload, WorkerPool, run_serial
from repro.serving.cache import (
    CacheDirectory,
    FeedbackCache,
    cache_key,
    feedback_fingerprint,
    model_digest,
)
from repro.serving.config import ServingConfig
from repro.serving.dedup import canonicalize_response, first_occurrence
from repro.serving.metrics import ServingMetrics


@dataclass(frozen=True)
class FeedbackJob:
    """One scoring request: a response to verify in a task's scenario."""

    task: str
    scenario: str
    response: str


class PendingBatch:
    """Future handle for a batch submitted with :meth:`FeedbackService.submit_batch`.

    A thin, read-only wrapper over a :class:`concurrent.futures.Future` whose
    result is the batch's score list in submission order — exactly what
    :meth:`FeedbackService.score_batch` would have returned.
    """

    def __init__(self, jobs: Sequence[FeedbackJob], future: Future):
        self.jobs = list(jobs)
        self._future = future

    def result(self, timeout: float | None = None) -> list:
        """Block until the batch is scored and return the scores."""
        return self._future.result(timeout)

    def exception(self, timeout: float | None = None):
        """The exception the batch raised, or None once it scored cleanly."""
        return self._future.exception(timeout)

    def done(self) -> bool:
        """Whether the batch has resolved (scored or failed); never blocks."""
        return self._future.done()

    def __len__(self) -> int:
        return len(self.jobs)


class Dispatcher:
    """A single-threaded executor, round-robin fair between submission keys.

    One worker thread runs every submitted call.  Calls submitted under the
    same key run strictly in submission order, which is what keeps a
    service's submitted scores bitwise-identical to sequential
    ``score_batch`` calls.  Between keys, admission is **round-robin**, not
    FIFO: each key owns a queue, and the thread takes one call from each
    non-empty queue in rotation.  A key that has queued a hundred calls
    therefore delays another key's next call by at most one, not a hundred.

    A :class:`FeedbackService` lazily creates its own dispatcher and closes
    it with the service.  The jobs daemon builds one and submits each
    client's jobs under a per-client key, which makes this rotation its
    cross-client fairness.  ``close()`` (or a ``with`` block) waits for
    everything already submitted, then rejects new submissions with
    ``RuntimeError``.
    """

    def __init__(self, *, name: str = "feedback-dispatch"):
        self.name = name
        self._lock = threading.Lock()
        self._executor: ThreadPoolExecutor | None = None
        # Round-robin state: one FIFO deque of (future, fn, args) per key,
        # and a rotation of the keys.  A key is the id() of the caller's
        # `service` object, which the caller keeps alive while its calls are
        # queued (the jobs daemon holds its client tokens for its lifetime),
        # so ids cannot alias; calls without one share the None key.
        self._queues: dict = {}
        self._rotation: deque = deque()
        self._closed = False

    # ------------------------------------------------------------------ #
    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run; a closed dispatcher rejects submits."""
        with self._lock:
            return self._closed

    @property
    def queued_batches(self) -> int:
        """Batches admitted but not yet started by the worker thread."""
        with self._lock:
            return sum(len(queue) for queue in self._queues.values())

    # ------------------------------------------------------------------ #
    def submit(self, fn, *args, service=None) -> Future:
        """Queue ``fn(*args)`` on the dispatch thread; returns its future.

        ``service`` is the fairness key (any object) whose queue the call
        joins: calls under one key run in their submission order, while
        distinct keys are interleaved round-robin.  Calls without a key
        (``service=None``) share one queue.  The worker thread is started
        lazily on the first submission, so a dispatcher that is constructed
        but never used costs nothing.
        """
        future: Future = Future()
        with self._lock:
            if self._closed:
                raise RuntimeError("submit on a closed Dispatcher")
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=1, thread_name_prefix=self.name
                )
            key = None if service is None else id(service)
            if key not in self._queues:
                self._queues[key] = deque()
                self._rotation.append(key)
            self._queues[key].append((future, fn, args))
            depth = sum(len(queue) for queue in self._queues.values())
            # One _run_next per queued item: the executor's own FIFO only
            # counts how many items remain; *which* item each run executes
            # is decided by the round-robin pop below.
            self._executor.submit(self._run_next)
        obs.counter("dispatcher.queue_depth", depth)
        return future

    def _pop_round_robin(self):
        """Take the next item fairly: one batch per non-empty queue, in rotation."""
        with self._lock:
            for _ in range(len(self._rotation)):
                key = self._rotation[0]
                self._rotation.rotate(-1)  # the chosen key goes to the back
                queue = self._queues.get(key)
                if queue:
                    item = queue.popleft()
                    if not queue:
                        # Drop the empty queue so a departed key can't
                        # linger (or alias a recycled id) forever.
                        del self._queues[key]
                        self._rotation.remove(key)
                    return item
        return None

    def _run_next(self) -> None:
        """Execute one queued call, chosen round-robin across keys."""
        item = self._pop_round_robin()
        if item is None:  # every queue drained (shutdown already ran the rest)
            return
        future, fn, args = item
        if not future.set_running_or_notify_cancel():
            return
        obs.counter("dispatcher.queue_depth", self.queued_batches)
        try:
            with obs.span("dispatch.batch", category="serving", dispatcher=self.name):
                result = fn(*args)
        except BaseException as exc:
            future.set_exception(exc)
        else:
            future.set_result(result)

    # ------------------------------------------------------------------ #
    def close(self, *, wait: bool = True) -> None:
        """Drain submitted batches (when ``wait``) and stop the thread.

        Idempotent.  After ``close()`` every ``submit`` raises
        ``RuntimeError``.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            executor, self._executor = self._executor, None
        if executor is not None:
            # Shutdown waits for the already-submitted _run_next calls —
            # exactly one per queued batch — so every admitted batch still
            # executes (and resolves its future) before the thread stops.
            executor.shutdown(wait=wait)

    def __enter__(self) -> "Dispatcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class FeedbackService:
    """Batched, cached scoring of responses against the rule book.

    Parameters
    ----------
    specifications:
        Mapping ``{name: Formula}`` every job is scored against.
    feedback:
        A :class:`~repro.core.config.FeedbackConfig` selecting formal
        verification or empirical (simulator) evaluation and its parameters.
    config:
        A :class:`~repro.serving.config.ServingConfig`; defaults to the
        cached, serial configuration.
    seed:
        Base seed for empirical trace collection (matching the pipeline's
        ``config.seed`` so cached and uncached scores agree).
    model_builder:
        ``scenario name -> TransitionSystem``; defaults to the driving
        scenario catalogue.  A custom builder cannot be shipped to worker
        processes, so it silently downgrades the ``"process"`` backend to the
        serial loop.
    """

    def __init__(
        self,
        specifications: Mapping,
        *,
        feedback=None,
        config: ServingConfig | None = None,
        seed: int = 0,
        model_builder=None,
    ):
        if feedback is None:
            from repro.core.config import FeedbackConfig  # deferred: core sits above serving

            feedback = FeedbackConfig()
        self.specifications = dict(specifications)
        self.feedback = feedback
        self.config = config or ServingConfig()
        self.seed = seed
        self._scorer = ResponseScorer.from_feedback(
            self.specifications,
            feedback,
            seed=seed,
            model_builder=model_builder,
        )
        self.model_builder = self._scorer.model_builder
        # Worker processes rebuild the scorer from this payload.  Only the
        # default (catalogue) model builder is reproducible in a fresh process.
        # Workers inherit the trace destination at construction time: the
        # tracer installed *now* decides whether (and where) worker processes
        # shard their spans, which is why the pipeline/CLI install the tracer
        # before building services.
        shard_dir = obs.current_tracer().shard_dir
        self._payload = (
            WorkerPayload.from_feedback(
                self.specifications,
                feedback,
                seed=seed,
                trace_shard_dir=None if shard_dir is None else str(shard_dir),
            )
            if model_builder is None
            else None
        )
        self.metrics = ServingMetrics()
        self._fingerprint = feedback_fingerprint(feedback, self.specifications, seed=seed)
        self.cache = self._initial_cache()
        self._digests: dict = {}
        # Guards the digest memo: scenario_digest is reachable both from the
        # public API (off-lock) and from inside the batch path (under
        # _batch_lock), so it needs its own consistently-held lock.
        self._digest_lock = threading.Lock()
        # One persistent process pool per service lifetime (forked lazily on
        # the first large miss batch, reused for every batch after that) and
        # one dispatcher for submitted batches, created on the first submit.
        # The lock serialises score_batch bodies so direct calls and
        # dispatcher-thread calls can interleave without racing the cache or
        # the metrics.
        self._pool: WorkerPool | None = None
        self._dispatcher: Dispatcher | None = None
        self._batch_lock = threading.Lock()
        # Guards lazy dispatcher creation and the closed flag, so concurrent
        # submit_batch callers share one dispatcher (order determinism) and
        # submit can never race past close() into a shut-down executor.
        self._submit_lock = threading.Lock()
        self._closed = False

    def _initial_cache(self) -> FeedbackCache:
        cache = FeedbackCache(max_entries=self.config.cache_size)
        if self.config.shared_cache_dir is not None:
            # Warm-starting is best-effort: an unreadable cache directory must
            # not take the service down (corrupt shards already load empty).
            try:
                directory = CacheDirectory(self.config.shared_cache_dir)
                adopted = cache.merge(directory.shard_entries(self._fingerprint))
                self.metrics.record_warm_start(adopted)
            except OSError:
                pass
        return cache

    # ------------------------------------------------------------------ #
    # Shared per-scenario machinery
    # ------------------------------------------------------------------ #
    def scenario_model(self, scenario: str):
        """The (cached) world model responses in ``scenario`` are checked against."""
        return self._scorer.scenario_model(scenario)

    def evaluator(self, scenario: str):
        """The (cached) empirical evaluator for ``scenario``."""
        return self._scorer.evaluator(scenario)

    def scenario_digest(self, scenario: str) -> str:
        """The (cached) structural digest of a scenario's world model.

        Part of every cache key in formal mode, so edited world models (or a
        custom ``model_builder``) never collide with a stale persisted cache.
        Empirical scores never touch the formal model — its digest would both
        be meaningless and force simulator-only scenarios to have one — so
        empirical mode keys on the fingerprint (mode, traces, seed, version)
        alone.
        """
        if self.feedback.use_empirical:
            return ""
        with self._digest_lock:
            if scenario not in self._digests:
                self._digests[scenario] = model_digest(self.scenario_model(scenario))
            return self._digests[scenario]

    def _prepare_scenarios(self, jobs: Sequence[FeedbackJob]) -> None:
        """Build each scenario's model/evaluator once, before any fan-out.

        Sorted so preparation order (and any RNG it consumes) is deterministic
        regardless of set iteration order.
        """
        for scenario in sorted({job.scenario for job in jobs}):
            self._scorer.prepare(scenario)

    # ------------------------------------------------------------------ #
    # Scoring
    # ------------------------------------------------------------------ #
    def _score_misses(self, jobs: Sequence[FeedbackJob]) -> list:
        """Fan the unique cache misses out to the configured backend."""
        backend = self.config.backend
        if backend == "process" and self._payload is not None:
            if self._pool is None:
                self._pool = WorkerPool(self._payload, max_workers=self.config.max_workers)
            return self._pool.run(jobs, fallback=self._scorer)
        # "process" lands here too when no payload could be built: a custom
        # model builder cannot be rebuilt inside a worker.
        return run_serial(self._scorer, jobs)

    def score_batch(self, jobs: Sequence[FeedbackJob]) -> list:
        """Scores for ``jobs``, in submission order.

        Deduplicates by ``(scenario, canonical response)``, answers hits from
        the cache, fans the remaining misses out to the configured backend,
        and records telemetry.  Disabled serving degenerates to a serial loop
        with no cache — the reference path.  Thread-safe: batches from direct
        callers and from the dispatcher execute one at a time.
        """
        jobs = list(jobs)
        with self._batch_lock, obs.span(
            "serving.score_batch", category="serving", jobs=len(jobs)
        ):
            return self._score_batch_locked(jobs)

    def _score_batch_locked(self, jobs: list) -> list:
        start = time.perf_counter()
        if not self.config.enabled:
            # The reference path performs no cache lookups, so it must record
            # none: hits=misses=0, with the work accounted as uncached jobs.
            # (It used to claim `misses=len(jobs)`, making hit_rate report
            # cache activity that never happened.)
            scores = run_serial(self._scorer, jobs)
            self.metrics.record_batch(
                jobs=len(jobs), unique=len(jobs), hits=0, misses=0,
                uncached=len(jobs), seconds=time.perf_counter() - start,
            )
            return scores

        # Dedup: first occurrence of each (scenario, canonical text) key is
        # the representative whose score every duplicate receives.
        self._prepare_scenarios(jobs)
        keys = [
            cache_key(
                job.scenario,
                canonicalize_response(job.response),
                self._fingerprint,
                self.scenario_digest(job.scenario),
            )
            for job in jobs
        ]
        unique_keys, _ = first_occurrence(keys)
        representative: dict = {}
        for index, key in enumerate(keys):
            representative.setdefault(key, jobs[index])

        resolved: dict = {}
        misses: list = []
        for key in unique_keys:
            cached = self.cache.get(key)
            if cached is None:
                misses.append((key, representative[key]))
            else:
                resolved[key] = cached

        if misses:
            miss_scores = self._score_misses([job for _, job in misses])
            for (key, _), score in zip(misses, miss_scores):
                resolved[key] = score
                self.cache.put(key, score)

        self.metrics.record_batch(
            jobs=len(jobs),
            unique=len(unique_keys),
            hits=len(unique_keys) - len(misses),
            misses=len(misses),
            seconds=time.perf_counter() - start,
        )
        return [resolved[key] for key in keys]

    def score_responses(self, task, responses: Iterable[str]) -> list:
        """Scores for several responses to one task (a common batch shape)."""
        return self.score_batch(
            [FeedbackJob(task=task.name, scenario=task.scenario, response=r) for r in responses]
        )

    def score_response(self, task, response: str) -> int:
        """Score a single response (still cached/deduplicated)."""
        return self.score_responses(task, [response])[0]

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    def submit_batch(self, jobs: Sequence[FeedbackJob]) -> PendingBatch:
        """Queue ``jobs`` for scoring and return a :class:`PendingBatch`.

        Batches are executed in submission order on the service's own
        :class:`Dispatcher` (a single thread), so interleaved
        ``submit_batch`` / ``score_batch`` calls see the cache evolve exactly
        as sequential ``score_batch`` calls would — the handle's ``result()``
        is bitwise-identical to the synchronous score list.  The producer is
        free to keep working (the pipeline ranks task *k* while task *k+1*
        verifies here).
        """
        jobs = list(jobs)
        with self._submit_lock:
            if self._closed:
                raise RuntimeError("submit_batch on a closed FeedbackService")
            if self._dispatcher is None:
                self._dispatcher = Dispatcher()
            future = self._dispatcher.submit(self.score_batch, jobs)
        return PendingBatch(jobs, future)

    def submit_responses(self, task, responses: Iterable[str]) -> PendingBatch:
        """Submitting counterpart of :meth:`score_responses`."""
        return self.submit_batch(
            [FeedbackJob(task=task.name, scenario=task.scenario, response=r) for r in responses]
        )

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self, *, flush: bool = True) -> None:
        """Drain submitted batches and release threads/worker processes.

        Closing the service's dispatcher waits for every batch already
        submitted; then the cache is optionally flushed to its shared cache
        directory and the persistent process pool shut down.  Idempotent;
        after ``close()`` the synchronous ``score_batch`` path still works
        (the process backend degrades to serial scoring) but
        ``submit_batch`` raises.
        """
        with self._submit_lock:
            if self._closed:
                return
            self._closed = True
            dispatcher, self._dispatcher = self._dispatcher, None
        if dispatcher is not None:
            dispatcher.close(wait=True)
        # Serialise against any in-flight synchronous score_batch: flushing
        # while a batch mutates the cache, or closing the pool under a
        # running pool.map, would corrupt the flush or crash the batch.
        with self._batch_lock:
            if flush:
                self.flush()
            if self._pool is not None:
                self._pool.close()

    def __enter__(self) -> "FeedbackService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    def flush(self) -> bool:
        """Merge the cache into its ``shared_cache_dir`` shard.

        Best-effort, like warm-starting: a full disk, revoked permissions or
        an unserializable score must not destroy the results the cache merely
        accelerates.  The shard write is atomic, so a crash mid-flush can
        never corrupt a previously persisted shard.  When the config bounds
        the shared directory (``shared_cache_max_entries`` /
        ``shared_cache_max_bytes``), the directory is compacted after the
        store so it cannot grow without bound across runs.  Returns True when
        the shard was written.
        """
        wrote = False
        if self.config.shared_cache_dir is not None:
            try:
                directory = CacheDirectory(self.config.shared_cache_dir)
                directory.store(self._fingerprint, self.cache)
                wrote = True
                if (
                    self.config.shared_cache_max_entries is not None
                    or self.config.shared_cache_max_bytes is not None
                ):
                    directory.compact(
                        max_entries=self.config.shared_cache_max_entries,
                        max_bytes=self.config.shared_cache_max_bytes,
                    )
            except (OSError, TypeError, ValueError):
                pass
        return wrote
