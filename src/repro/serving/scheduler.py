"""The batched feedback service: dedup → cache → score → scatter.

:class:`FeedbackService` is the single entry point through which the pipeline
(and anything else) scores language-model responses.  A batch of ``(task,
response)`` jobs is canonicalised and deduplicated, cache hits are answered
immediately, and only the remaining unique misses are verified, inline and in
order (:func:`run_serial` over one :class:`ResponseScorer`), before results
scatter back to the original submission order.  World models, formal
verifiers and empirical evaluators are built once per scenario and reused
across every batch.  The cache lives in memory for the service's lifetime;
nothing is persisted.

Two submission styles share one execution path, and neither starts a thread:

* :meth:`FeedbackService.score_batch` — synchronous, returns scores in
  submission order (the reference API, and the one the pipeline calls);
* :meth:`FeedbackService.submit_batch` — the batch is queued and a
  :class:`PendingBatch` handle is returned at once.  Collecting a handle
  scores every batch queued up to and including it, oldest first, each as
  one ``score_batch`` call on the collecting thread, so submitted scores are
  bitwise-identical to the synchronous ones.

:class:`Dispatcher` is the jobs daemon's single-threaded executor: it runs
the calls submitted under one key strictly in submission order and rotates
round-robin between keys, so a chatty client cannot starve another.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.errors import AlignmentError
from repro.feedback.empirical import EmpiricalEvaluator
from repro.feedback.formal import FormalVerifier
from repro.glm2fsa.builder import build_controller_from_text
from repro.obs import tracer as obs
from repro.serving.cache import FeedbackCache, cache_key
from repro.serving.config import EMPIRICAL_THRESHOLD, EMPIRICAL_TRACES, ServingConfig
from repro.serving.dedup import canonicalize_response
from repro.serving.metrics import ServingMetrics


@dataclass(frozen=True)
class FeedbackJob:
    """One scoring request: a response to verify in a task's scenario."""

    task: str
    scenario: str
    response: str

    @classmethod
    def from_record(cls, record) -> "FeedbackJob":
        """The job a ``{task, response[, scenario]}`` input record asks for.

        An explicit ``scenario`` must be in the scenario catalogue, else the
        task must be in the task catalogue.  Raises ``ValueError`` in the
        words both ``repro-serve`` and the jobs daemon report.
        """
        from repro.driving.scenarios.universal import SCENARIO_BUILDERS
        from repro.driving.tasks import task_by_name

        if not isinstance(record, dict):
            raise ValueError(f"each record must be a JSON object, got {type(record).__name__}")
        if "task" not in record or "response" not in record:
            raise ValueError("each record needs 'task' and 'response' fields")
        for field in ("task", "response"):
            if not isinstance(record[field], str):
                raise ValueError(f"{field!r} must be a string, got {type(record[field]).__name__}")
        scenario = record.get("scenario")
        if scenario is None:
            try:
                scenario = task_by_name(record["task"]).scenario
            except KeyError as exc:
                raise ValueError(f"{exc.args[0]} (or add a 'scenario' field to the record)") from exc
        elif not isinstance(scenario, str):
            raise ValueError(f"'scenario' must be a string, got {type(scenario).__name__}")
        elif scenario not in SCENARIO_BUILDERS:
            raise ValueError(f"unknown scenario {scenario!r}; known: {sorted(SCENARIO_BUILDERS)}")
        return cls(task=record["task"], scenario=scenario, response=record["response"])


class ResponseScorer:
    """Builds the verification stack once and scores ``(task, scenario, response)`` jobs.

    ``use_empirical`` is :class:`~repro.core.config.FeedbackConfig`'s field
    (passed alone so this module never imports the pipeline layer); ``seed``
    seeds the empirical traces.  World models and evaluators are built
    lazily, once per scenario, and reused for every subsequent job.
    """

    def __init__(
        self,
        specifications: Mapping,
        *,
        use_empirical: bool = False,
        seed: int = 0,
        model_builder=None,
    ):
        if model_builder is None:
            from repro.driving.scenarios.universal import scenario_model

            model_builder = scenario_model
        self.specifications = dict(specifications)
        self.use_empirical = use_empirical
        self.seed = seed
        self.model_builder = model_builder
        self.verifier = FormalVerifier(self.specifications)
        self._models: dict = {}
        self._evaluators: dict = {}

    # ------------------------------------------------------------------ #
    def scenario_model(self, scenario: str):
        """The (cached) world model responses in ``scenario`` are checked against."""
        if scenario not in self._models:
            self._models[scenario] = self.model_builder(scenario)
        return self._models[scenario]

    def scenario_digest(self, scenario: str) -> str:
        """The digest of ``scenario``'s world model, memoized by the checker."""
        return self.verifier.checker.model_fingerprint(self.scenario_model(scenario))

    def evaluator(self, scenario: str) -> EmpiricalEvaluator:
        """The (cached) empirical evaluator for ``scenario``."""
        if scenario not in self._evaluators:
            from repro.sim.executor import SimulationGrounding  # deferred: optional path

            self._evaluators[scenario] = EmpiricalEvaluator(
                self.specifications,
                SimulationGrounding(scenario),
                threshold=EMPIRICAL_THRESHOLD,
            )
        return self._evaluators[scenario]

    def prepare(self, scenario: str) -> None:
        """Build ``scenario``'s model/evaluator eagerly, before a batch is scored."""
        if self.use_empirical:
            self.evaluator(scenario)
        else:
            self.scenario_model(scenario)

    # ------------------------------------------------------------------ #
    def score(self, task: str, scenario: str, response: str) -> int:
        """Verify one response from scratch (the serial reference computation)."""
        if self.use_empirical:
            try:
                controller = build_controller_from_text(response, task=task)
            except AlignmentError:
                return 0
            feedback = self.evaluator(scenario).evaluate_controller(
                controller, num_traces=EMPIRICAL_TRACES, seed=self.seed
            )
            return feedback.num_satisfied
        feedback = self.verifier.verify_response(self.scenario_model(scenario), response, task=task)
        return feedback.num_satisfied


def run_serial(scorer: ResponseScorer, jobs: Sequence) -> list:
    """Score ``jobs`` inline, in order."""
    return [scorer.score(job.task, job.scenario, job.response) for job in jobs]


class PendingBatch:
    """Handle for a batch queued with :meth:`FeedbackService.submit_batch`.

    Nothing is scored at submission.  :meth:`result` (or :meth:`exception`)
    scores, on the calling thread, every batch queued up to and including
    this one, oldest first, each as one :meth:`FeedbackService.score_batch`
    call.  The result is the batch's score list in submission order —
    exactly what ``score_batch`` would have returned.
    """

    def __init__(self, jobs: Sequence[FeedbackJob], future: Future, collect):
        self.jobs = list(jobs)
        self._future = future
        self._collect = collect

    def result(self, timeout: float | None = None) -> list:
        """Score the queue through this batch and return its scores.

        ``timeout`` bounds only the wait for another thread scoring batches
        ahead of this one, then raises ``TimeoutError``.
        """
        self._collect(self._future, timeout)
        return self._future.result()

    def exception(self, timeout: float | None = None):
        """Score as :meth:`result` does; the batch's exception, or None."""
        self._collect(self._future, timeout)
        return self._future.exception()

    def done(self) -> bool:
        """Whether the batch has been scored (or failed); never blocks or scores."""
        return self._future.done()

    def __len__(self) -> int:
        return len(self.jobs)


class Dispatcher:
    """A single-threaded executor, round-robin fair between submission keys.

    One worker thread runs every submitted call.  Calls submitted under the
    same key run strictly in submission order.  Between keys, admission is
    **round-robin**, not FIFO: each key owns a queue, and the thread takes
    one call from each non-empty queue in rotation.  A key that has queued a
    hundred calls therefore delays another key's next call by at most one,
    not a hundred.

    The jobs daemon builds one and submits each client's jobs under a
    per-client key, which makes this rotation its cross-client fairness.
    ``close()`` (or a ``with`` block) waits for everything already
    submitted, then rejects new submissions with ``RuntimeError``.
    """

    def __init__(self, *, name: str = "feedback-dispatch"):
        self.name = name
        self._lock = threading.Lock()
        self._executor: ThreadPoolExecutor | None = None
        # Round-robin state: one FIFO deque of (future, fn, args) per key,
        # and a rotation of the keys.
        self._queues: dict = {}
        self._rotation: deque = deque()
        self._closed = False

    # ------------------------------------------------------------------ #
    @property
    def queued_batches(self) -> int:
        """Batches admitted but not yet started by the worker thread."""
        with self._lock:
            return sum(len(queue) for queue in self._queues.values())

    # ------------------------------------------------------------------ #
    def submit(self, fn, *args, key=None) -> Future:
        """Queue ``fn(*args)`` on the dispatch thread; returns its future.

        ``key`` is the fairness key (any hashable value) whose queue the call
        joins: calls under one key run in their submission order, while
        distinct keys are interleaved round-robin.  Calls without a key
        (``key=None``) share one queue.  The worker thread is started
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
                        # linger forever.
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
    def close(self) -> None:
        """Drain submitted batches and stop the thread.

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
            executor.shutdown(wait=True)

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
        verification or empirical (simulator) evaluation.
    config:
        A :class:`~repro.serving.config.ServingConfig`; defaults to the
        cached configuration.
    seed:
        Base seed for empirical trace collection (matching the pipeline's
        ``config.seed`` so cached and uncached scores agree).
    model_builder:
        ``scenario name -> TransitionSystem``; defaults to the driving
        scenario catalogue.
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
        self._scorer = ResponseScorer(
            self.specifications,
            use_empirical=feedback.use_empirical,
            seed=seed,
            model_builder=model_builder,
        )
        self.metrics = ServingMetrics()
        self.cache = FeedbackCache(max_entries=self.config.cache_size)
        # Submitted (jobs, future) pairs wait in the queue until collected.
        # The batch lock runs one score_batch at a time; a collector holds it
        # across the batches it scores, so they run in submission order.  The
        # submit lock keeps submits from queueing after close().
        self._queue: deque = deque()
        self._batch_lock = threading.RLock()
        self._submit_lock = threading.Lock()
        self._closed = False

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
        """The (cached) digest of a scenario's world model.

        The scorer's model checker memoizes it and keys its verdict cache on
        it, so calling this warms that memo.  Empirical scores never touch the
        formal model, and a simulator-only scenario has none, so empirical
        mode returns ``""``.
        """
        if self.feedback.use_empirical:
            return ""
        return self._scorer.scenario_digest(scenario)

    def _prepare_scenarios(self, jobs: Sequence[FeedbackJob]) -> None:
        """Build each scenario's model/evaluator once, before its misses are scored.

        Sorted so preparation order (and any RNG it consumes) is deterministic
        regardless of set iteration order.
        """
        for scenario in sorted({job.scenario for job in jobs}):
            self._scorer.prepare(scenario)

    # ------------------------------------------------------------------ #
    # Scoring
    # ------------------------------------------------------------------ #
    def score_batch(self, jobs: Sequence[FeedbackJob]) -> list:
        """Scores for ``jobs``, in submission order.

        Deduplicates by ``(scenario, canonical response)``, answers hits from
        the cache, scores the remaining misses inline, and records telemetry.
        Disabled serving degenerates to a serial loop with no cache — the
        reference path.  Thread-safe: batches execute one at a time.  A
        direct call does not score batches queued by :meth:`submit_batch`.
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

        # Dedup: the first job with each (scenario, canonical text) key is
        # the representative whose score every duplicate receives; the dict
        # keeps the unique keys in first-seen order.
        self._prepare_scenarios(jobs)
        keys = [cache_key(job.scenario, canonicalize_response(job.response)) for job in jobs]
        representative: dict = {}
        for key, job in zip(keys, jobs):
            representative.setdefault(key, job)

        resolved: dict = {}
        misses: list = []
        for key, job in representative.items():
            cached = self.cache.get(key)
            if cached is None:
                misses.append((key, job))
            else:
                resolved[key] = cached

        if misses:
            miss_scores = run_serial(self._scorer, [job for _, job in misses])
            for (key, _), score in zip(misses, miss_scores):
                resolved[key] = score
                self.cache.put(key, score)

        self.metrics.record_batch(
            jobs=len(jobs),
            unique=len(representative),
            hits=len(representative) - len(misses),
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
        """Queue ``jobs`` and return a :class:`PendingBatch`; nothing is scored yet.

        Queued batches are scored in submission order, each as one
        :meth:`score_batch` call, on the thread that collects a handle or
        closes the service, so the handle's ``result()`` is
        bitwise-identical to the synchronous score list.  Raises
        ``RuntimeError`` after :meth:`close`.
        """
        jobs = list(jobs)
        future: Future = Future()
        with self._submit_lock:
            if self._closed:
                raise RuntimeError("submit_batch on a closed FeedbackService")
            self._queue.append((jobs, future))
        return PendingBatch(jobs, future, self._collect)

    def submit_responses(self, task, responses: Iterable[str]) -> PendingBatch:
        """Submitting counterpart of :meth:`score_responses`."""
        return self.submit_batch(
            [FeedbackJob(task=task.name, scenario=task.scenario, response=r) for r in responses]
        )

    def _collect(self, future: Future, timeout: float | None) -> None:
        """Score queued batches on this thread until ``future`` resolves;
        ``timeout`` bounds the wait for a thread scoring the batches ahead."""
        if not self._batch_lock.acquire(timeout=-1 if timeout is None else max(timeout, 0)):
            raise FutureTimeoutError("another thread is still scoring the batches ahead")
        try:
            self._score_queued_locked(future)
        finally:
            self._batch_lock.release()

    def _score_queued_locked(self, until: Future | None) -> None:
        """Score queued batches, oldest first, through ``until`` (None: all)."""
        while self._queue and (until is None or not until.done()):
            jobs, future = self._queue.popleft()
            try:
                future.set_result(self.score_batch(jobs))
            except BaseException as exc:  # the batch's handle reports it
                future.set_exception(exc)
                if not isinstance(exc, Exception):
                    raise

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Reject further submits, then score every queued batch on this thread.

        Idempotent; after ``close()`` the synchronous ``score_batch`` path
        still works but ``submit_batch`` raises.
        """
        with self._submit_lock:
            self._closed = True
        with self._batch_lock:
            self._score_queued_locked(None)

    def __enter__(self) -> "FeedbackService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
