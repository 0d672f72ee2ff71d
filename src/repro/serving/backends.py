"""Worker-pool backends for scoring cache misses.

The scheduler scores a miss by building a GLM2FSA controller from the response
and model-checking it (or rolling it out in the simulator) — pure-Python CPU
work.  Two backends execute that work:

``"serial"``
    An inline loop (:func:`run_serial`).  The default, and the bitwise
    reference every other path must match.
``"process"``
    A :class:`~concurrent.futures.ProcessPoolExecutor`.  Each worker process
    runs an initializer that rebuilds the verifier/world-model/evaluator stack
    exactly once from a picklable :class:`WorkerPayload`; misses are dispatched
    in contiguous chunks and results concatenated in submission order, so the
    scatter is deterministic regardless of which worker finishes first.  Small
    miss batches fall back to the serial loop — forking processes for a couple
    of jobs costs more than it saves.

The process backend's executor lives inside a :class:`WorkerPool`: the pool is
started lazily on the first large-enough miss batch and then *reused for every
subsequent batch* over the owning service's lifetime, so the fork/initializer
cost is paid once per worker rather than once per cold batch.  ``close()``
(reached through :meth:`FeedbackService.close
<repro.serving.scheduler.FeedbackService.close>`, the service's context
manager, or a ``with WorkerPool(...)`` block) shuts the workers down; a closed
or broken pool degrades to the serial loop, never to wrong scores.

:class:`ResponseScorer` is the single implementation of "score one response
from scratch" shared by both: the scheduler owns one for the serial path (and
the pool's fallback), and every worker process owns one built from the
payload.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from repro.obs import tracer as obs
from repro.errors import AlignmentError
from repro.feedback.empirical import EmpiricalEvaluator
from repro.feedback.formal import FormalVerifier
from repro.glm2fsa.builder import build_controller_from_text
from repro.serving.config import EMPIRICAL_THRESHOLD, EMPIRICAL_TRACES

#: Miss batches smaller than this are scored inline by the process backend:
#: the fork/initializer cost would dominate the verification work saved.
PROCESS_MIN_BATCH = 4


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
        """Build ``scenario``'s model/evaluator eagerly, before any fan-out."""
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


@dataclass(frozen=True)
class WorkerPayload:
    """Everything a worker process needs to rebuild a :class:`ResponseScorer`.

    Every field pickles: specifications are plain formula dataclasses, the
    rest are primitives.  Custom ``model_builder`` callables are deliberately
    *not* part of the payload — a service configured with one cannot use the
    process backend (the scheduler falls back to the serial loop), since
    shipping arbitrary closures to workers is neither picklable in general
    nor reproducible.
    """

    specifications: tuple  # ((name, formula), ...) in a stable order
    use_empirical: bool
    seed: int
    #: Directory worker processes write per-PID trace shards into; ``None``
    #: keeps workers untraced (the default — tracing is opt-in).
    trace_shard_dir: str | None = None

    @classmethod
    def from_feedback(
        cls,
        specifications: Mapping,
        feedback,
        *,
        seed: int = 0,
        trace_shard_dir: str | None = None,
    ) -> "WorkerPayload":
        return cls(
            specifications=tuple(sorted(specifications.items())),
            use_empirical=feedback.use_empirical,
            seed=seed,
            trace_shard_dir=trace_shard_dir,
        )

    def build_scorer(self) -> ResponseScorer:
        return ResponseScorer(
            dict(self.specifications), use_empirical=self.use_empirical, seed=self.seed
        )


#: Per-process scorer, created by :func:`_initialize_worker` and reused for
#: every chunk the worker receives over its lifetime.
_WORKER_SCORER: ResponseScorer | None = None


def _initialize_worker(payload: WorkerPayload) -> None:
    global _WORKER_SCORER
    # Forked workers inherit the parent's installed tracer, whose in-memory
    # spans would be lost on worker exit.  Replace it: either a shard writer
    # flushing every span to a per-PID JSONL file the parent merges at export,
    # or (tracing off) the no-op tracer.
    if payload.trace_shard_dir is not None:
        shard_dir = Path(payload.trace_shard_dir)
        shard_dir.mkdir(parents=True, exist_ok=True)
        obs.install_tracer(obs.Tracer(jsonl_path=shard_dir / f"pid-{os.getpid()}.jsonl"))
    else:
        obs.uninstall_tracer()
    _WORKER_SCORER = payload.build_scorer()


def _score_chunk(chunk: Sequence[tuple]) -> list:
    """Score one chunk of ``(task, scenario, response)`` triples in order."""
    assert _WORKER_SCORER is not None, "worker used before its initializer ran"
    return [_WORKER_SCORER.score(task, scenario, response) for task, scenario, response in chunk]


# ---------------------------------------------------------------------- #
# Dispatch
# ---------------------------------------------------------------------- #
def run_serial(scorer: ResponseScorer, jobs: Sequence) -> list:
    """Score ``jobs`` inline, in order."""
    return [scorer.score(job.task, job.scenario, job.response) for job in jobs]


class WorkerPool:
    """A lazily started, *persistent* process pool for scoring cache misses.

    The pre-refactor process backend forked a fresh ``ProcessPoolExecutor``
    per cold batch, re-running the per-worker initializer (verifier /
    world-model / evaluator construction) dozens of times per pipeline run.
    A ``WorkerPool`` instead starts its executor on the first large-enough
    batch and reuses it for every batch thereafter — ``starts`` records how
    many times the executor was actually launched over the pool's lifetime
    (1 for a healthy run), which the tests and benchmarks assert on.

    Degradation is always toward the serial reference, never toward wrong
    scores: batches below :data:`PROCESS_MIN_BATCH` are scored inline, and a
    closed pool keeps answering via the fallback scorer.  A pool whose
    construction fails or whose workers die (``OSError`` / ``BrokenExecutor``)
    marks itself broken and scores that batch, and every later one, with the
    serial loop.
    """

    def __init__(self, payload: WorkerPayload, *, max_workers: int):
        self.payload = payload
        self.max_workers = max_workers
        self._executor: ProcessPoolExecutor | None = None
        #: Executor launches over this pool's lifetime (fork/initializer cost
        #: is paid ``starts × max_workers`` times, so reuse keeps this at 1).
        self.starts = 0
        self.closed = False
        self._broken = False
        # Guards the closed/broken flags and executor creation/teardown, so a
        # run() racing close() can never fork a fresh executor that nothing
        # would ever shut down.
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    def _acquire_executor(self) -> ProcessPoolExecutor | None:
        """The live executor (forking it on first use), or None when the pool
        is closed/broken and the caller must take the serial path."""
        with self._lock:
            if self.closed or self._broken:
                return None
            if self._executor is None:
                self._executor = ProcessPoolExecutor(
                    max_workers=self.max_workers,
                    initializer=_initialize_worker,
                    initargs=(self.payload,),
                )
                self.starts += 1
            return self._executor

    def _discard_executor(self) -> None:
        """Tear down the current executor and mark the pool broken: every
        later batch takes the serial path."""
        with self._lock:
            executor, self._executor = self._executor, None
            self._broken = True
        if executor is not None:
            try:
                executor.shutdown(wait=False)
            # Best-effort teardown of an already-broken pool: the caller is
            # about to fall back, and a shutdown error here would mask the
            # original worker failure.
            # repro: allow[swallowed-exception] — best-effort teardown of a broken pool
            except Exception:
                pass

    # ------------------------------------------------------------------ #
    def run(self, jobs: Sequence, *, fallback: ResponseScorer) -> list:
        """Score ``jobs`` on the (reused) pool; results in submission order.

        Jobs are split into at most ``4 × max_workers`` contiguous chunks
        (enough slack for work-stealing across uneven verification times
        without paying per-job IPC); ``pool.map`` preserves chunk order, so
        concatenating the per-chunk score lists reproduces submission order
        exactly.  Batches smaller than :data:`PROCESS_MIN_BATCH` are scored
        inline with ``fallback`` — identical scores, none of the dispatch cost.
        """
        jobs = list(jobs)
        if len(jobs) < PROCESS_MIN_BATCH:
            return run_serial(fallback, jobs)
        triples = [(job.task, job.scenario, job.response) for job in jobs]
        chunk_size = max(1, -(-len(triples) // (self.max_workers * 4)))
        chunks = [triples[i : i + chunk_size] for i in range(0, len(triples), chunk_size)]
        try:
            pool = self._acquire_executor()
            if pool is not None:  # None: closed or broken, so serial below
                scores: list = []
                for chunk_scores in pool.map(_score_chunk, chunks):
                    scores.extend(chunk_scores)
                return scores
        except (OSError, BrokenExecutor):
            # The workers could not be forked, or one died: correctness over
            # parallelism, for this batch and every later one.
            self._discard_executor()
        return run_serial(fallback, jobs)

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Shut the worker processes down.  Idempotent.

        Scoring through a closed pool still works — it degrades to the serial
        fallback — so a late ``score_batch`` cannot crash, only slow down.
        """
        with self._lock:
            self.closed = True
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

