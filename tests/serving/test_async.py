"""Submitted batches and persistent worker-pool tests.

The contract under test: ``submit_batch`` returns scores bitwise-identical to
the synchronous ``score_batch`` reference on every backend; the process
backend's :class:`WorkerPool` forks its executor exactly once per service
lifetime no matter how many batches it scores; and ``close()`` releases every
thread and worker process while never corrupting results.
"""

import pytest

from repro.core.config import FeedbackConfig
from repro.driving import core_specifications, response_templates, task_by_name
from repro.serving import (
    BACKENDS,
    FeedbackJob,
    FeedbackService,
    ServingConfig,
    WorkerPayload,
    WorkerPool,
)
from repro.serving.backends import PROCESS_MIN_BATCH


def _mixed_scenario_jobs() -> list:
    """Templates from three scenarios, with duplicates, as sampling produces."""
    jobs = []
    for name in ("turn_right_traffic_light", "enter_roundabout", "merge_onto_highway"):
        task = task_by_name(name)
        responses = list(response_templates(name, "compliant"))
        responses += list(response_templates(name, "flawed"))[:2]
        responses.append(responses[0])  # exact duplicate
        for response in responses:
            jobs.append(FeedbackJob(task=name, scenario=task.scenario, response=response))
    return jobs


def _service(backend: str = "serial", **config_kwargs) -> FeedbackService:
    return FeedbackService(
        core_specifications(),
        feedback=FeedbackConfig(),
        config=ServingConfig(backend=backend, max_workers=2, **config_kwargs),
        seed=0,
    )


def _reference_scores(jobs) -> list:
    return FeedbackService(
        core_specifications(), feedback=FeedbackConfig(), seed=0, config=ServingConfig(enabled=False)
    ).score_batch(jobs)


class TestSubmitBatch:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_async_submission_matches_serial_reference(self, backend):
        jobs = _mixed_scenario_jobs()
        reference = _reference_scores(jobs)
        with _service(backend) as service:
            handle = service.submit_batch(jobs)
            assert handle.result() == reference, backend

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_interleaved_async_batches_match_sequential_score_batch(self, backend):
        """Several in-flight batches must resolve exactly like sequential calls."""
        jobs = _mixed_scenario_jobs()
        batches = [jobs[i::3] for i in range(3)]  # overlapping content across batches
        sync = _service(backend)
        expected = [sync.score_batch(batch) for batch in batches]
        with _service(backend) as service:
            handles = [service.submit_batch(batch) for batch in batches]
            assert [h.result() for h in handles] == expected

    def test_submission_returns_before_scoring_finishes(self):
        """The producer must be free while the dispatcher verifies.

        Structural, not wall-clock: scoring blocks on an event the test only
        sets *after* ``submit_responses`` returns.  If submission blocked on
        verification, the handle could never be pending here (and a true
        deadlock would trip the gate's timeout, failing loudly).
        """
        import threading

        task = task_by_name("enter_roundabout")
        service = _service("serial")
        gate = threading.Event()
        original = service._scorer.score

        def gated_score(*args, **kwargs):
            assert gate.wait(timeout=30), "producer never released the scoring gate"
            return original(*args, **kwargs)

        service._scorer.score = gated_score
        responses = list(response_templates(task.name, "compliant"))
        handle = service.submit_responses(task, responses)
        assert not handle.done(), "verification is gated, yet submission returned a done handle"
        gate.set()
        scores = handle.result()
        service.close()
        assert len(scores) == len(responses)

    def test_concurrent_submitters_share_one_dispatcher(self):
        """Racing producers must not each spin up a dispatcher (that would
        break submission-order execution and leak a thread past close())."""
        import threading

        jobs = _mixed_scenario_jobs()
        slices = [jobs[i::4] for i in range(4)]
        with _service("serial") as service:
            handles: list = [None] * len(slices)

            def submit(index):
                handles[index] = service.submit_batch(slices[index])

            threads = [threading.Thread(target=submit, args=(i,)) for i in range(len(slices))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            results = [handle.result() for handle in handles]
        assert results == [_reference_scores(batch) for batch in slices]

    def test_submit_batch_scores_through_score_batch_on_the_dispatcher(self, monkeypatch):
        """Every submitted batch runs as one score_batch call on the one
        dispatcher thread — the seam a caller wrapping score_batch (a
        profiler, a probe) relies on."""
        import threading

        calls = []
        real_score_batch = FeedbackService.score_batch

        def recording(self, jobs):
            calls.append((threading.current_thread(), len(jobs)))
            return real_score_batch(self, jobs)

        monkeypatch.setattr(FeedbackService, "score_batch", recording)
        jobs = _mixed_scenario_jobs()
        batches = [jobs[:5], jobs[5:]]
        with _service("serial") as service:
            for handle in [service.submit_batch(batch) for batch in batches]:
                handle.result()
        assert [size for _, size in calls] == [len(batch) for batch in batches]
        threads = {thread for thread, _ in calls}
        assert len(threads) == 1 and threading.main_thread() not in threads

    def test_submit_responses_matches_score_responses(self):
        task = task_by_name("turn_right_traffic_light")
        responses = list(response_templates(task.name, "compliant")) + ["1. Drive nicely."]
        with _service("serial") as service:
            pending = service.submit_responses(task, responses)
            assert pending.result() == service.score_responses(task, responses)


class TestServiceLifecycle:
    def test_close_then_submit_raises(self):
        service = _service("serial")
        service.close()
        with pytest.raises(RuntimeError):
            service.submit_batch(_mixed_scenario_jobs()[:2])

    def test_close_is_idempotent_and_synchronous_path_survives(self):
        task = task_by_name("enter_roundabout")
        service = _service("process")
        response = response_templates(task.name, "compliant")[0]
        before = service.score_response(task, response)
        service.close()
        service.close()
        # Synchronous scoring still works (process pool degrades to serial).
        assert service.score_response(task, response) == before

    def test_close_drains_pending_batches(self):
        jobs = _mixed_scenario_jobs()
        service = _service("serial")
        handle = service.submit_batch(jobs)
        service.close()
        assert handle.done() and handle.result() == _reference_scores(jobs)


class TestWorkerPoolReuse:
    def test_pool_forks_once_across_batches(self):
        """The tentpole claim: one executor launch per service lifetime."""
        all_jobs = _mixed_scenario_jobs()
        # Three batches of distinct responses so every batch has >= PROCESS_MIN_BATCH
        # cold misses and must reach the process pool.
        batches = [all_jobs[0:5], all_jobs[5:10], all_jobs[10:15]]
        with _service("process") as service:
            for batch in batches:
                service.score_batch(batch)
            assert service._pool is not None
            assert service._pool.starts <= 1  # 0 only if this sandbox lacks multiprocessing
            if service._pool.starts == 0:
                assert service._pool._broken

    def test_worker_pool_run_reuses_executor(self):
        jobs = _mixed_scenario_jobs()
        payload = WorkerPayload.from_feedback(core_specifications(), FeedbackConfig(), seed=0)
        fallback = payload.build_scorer()
        expected = [fallback.score(j.task, j.scenario, j.response) for j in jobs]
        with WorkerPool(payload, max_workers=2) as pool:
            assert pool.run(jobs[:8], fallback=fallback) == expected[:8]
            assert pool.run(jobs[8:], fallback=fallback) == expected[8:]
            assert pool.starts <= 1

    def test_small_batches_never_start_the_pool(self):
        payload = WorkerPayload.from_feedback(core_specifications(), FeedbackConfig(), seed=0)
        fallback = payload.build_scorer()
        jobs = _mixed_scenario_jobs()[: PROCESS_MIN_BATCH - 1]
        with WorkerPool(payload, max_workers=2) as pool:
            scores = pool.run(jobs, fallback=fallback)
            assert pool.starts == 0
            assert scores == [fallback.score(j.task, j.scenario, j.response) for j in jobs]

    def test_closed_pool_degrades_to_serial_scores(self):
        payload = WorkerPayload.from_feedback(core_specifications(), FeedbackConfig(), seed=0)
        fallback = payload.build_scorer()
        jobs = _mixed_scenario_jobs()[:6]
        pool = WorkerPool(payload, max_workers=2)
        pool.close()
        assert pool.run(jobs, fallback=fallback) == [
            fallback.score(j.task, j.scenario, j.response) for j in jobs
        ]
        assert pool.starts == 0


class TestPipelineAsyncIntegration:
    def test_pipeline_exposes_lifecycle(self):
        from repro.core import DPOAFPipeline
        from repro.core.config import quick_pipeline_config
        from repro.driving import training_tasks

        with DPOAFPipeline(
            quick_pipeline_config(seed=0),
            specifications=core_specifications(),
            tasks=training_tasks()[:1],
            validation=(),
        ) as pipeline:
            pairs = pipeline.augment_with_templates([], per_task=2)
            assert pairs
        with pytest.raises(RuntimeError):
            pipeline.serving.submit_batch([])
