"""Backend parity tests.

The contract under test: the ``"serial"`` and ``"process"`` backends return
scores bitwise-identical to the uncached reference, in submission order
(formal and empirical modes).
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


def _service(backend: str, feedback: FeedbackConfig, **config_kwargs) -> FeedbackService:
    return FeedbackService(
        core_specifications(),
        feedback=feedback,
        config=ServingConfig(backend=backend, max_workers=2, **config_kwargs),
        seed=0,
    )


class TestBackendParity:
    @pytest.mark.parametrize(
        "feedback",
        [FeedbackConfig(), FeedbackConfig(use_empirical=True)],
        ids=["formal", "empirical"],
    )
    def test_three_backends_are_bitwise_identical(self, feedback):
        jobs = _mixed_scenario_jobs()
        if feedback.use_empirical:
            jobs = jobs[:8]  # simulator scoring is slower; a smaller batch suffices
        reference = FeedbackService(
            core_specifications(), feedback=feedback, seed=0, config=ServingConfig(enabled=False)
        ).score_batch(jobs)
        for backend in BACKENDS:
            assert _service(backend, feedback).score_batch(jobs) == reference, backend

    def test_process_backend_small_batch_falls_back_to_serial(self):
        """A tiny miss batch must not pay the fork cost (and still score right)."""
        task = task_by_name("enter_roundabout")
        service = _service("process", FeedbackConfig())
        response = response_templates(task.name, "compliant")[0]
        score = service.score_response(task, response)
        reference = FeedbackService(
            core_specifications(), feedback=FeedbackConfig(), config=ServingConfig(enabled=False)
        ).score_response(task, response)
        assert score == reference

    def test_process_backend_with_custom_model_builder_downgrades_safely(self, monkeypatch):
        """A closure model builder cannot ship to workers: the service scores
        its misses on the serial loop, and the scores still match it."""
        import repro.serving.scheduler as scheduler
        from repro.driving import scenario_model

        def patched_builder(name):
            model = scenario_model(name)
            model.add_state("probe", [])
            model.add_transition(model.states[0], "probe")
            return model

        jobs = _mixed_scenario_jobs()
        patched = FeedbackService(
            core_specifications(),
            feedback=FeedbackConfig(),
            config=ServingConfig(backend="process", max_workers=2),
            model_builder=patched_builder,
        )
        reference = FeedbackService(
            core_specifications(),
            feedback=FeedbackConfig(),
            config=ServingConfig(enabled=False),
            model_builder=patched_builder,
        )
        real_run_serial = scheduler.run_serial
        serial_batches = []

        def spy_run_serial(scorer, batch):
            serial_batches.append(len(batch))
            return real_run_serial(scorer, batch)

        monkeypatch.setattr(scheduler, "run_serial", spy_run_serial)
        assert patched._payload is None
        assert patched.score_batch(jobs) == reference.score_batch(jobs)
        assert patched._pool is None, "a custom model builder must never start a worker pool"
        # One serial call for the patched service's misses, one for the
        # disabled reference.
        assert serial_batches == [patched.metrics.cache_misses, len(jobs)]

    def test_worker_pool_preserves_submission_order(self):
        """Chunked dispatch must concatenate chunk results in submission order."""
        jobs = _mixed_scenario_jobs()
        payload = WorkerPayload.from_feedback(core_specifications(), FeedbackConfig(), seed=0)
        fallback = payload.build_scorer()
        with WorkerPool(payload, max_workers=2) as pool:
            scores = pool.run(jobs, fallback=fallback)
        assert scores == [fallback.score(j.task, j.scenario, j.response) for j in jobs]

    def test_payload_round_trips_through_pickle(self):
        import pickle

        payload = WorkerPayload.from_feedback(
            core_specifications(), FeedbackConfig(use_empirical=True), seed=7
        )
        clone = pickle.loads(pickle.dumps(payload))
        assert clone == payload
        scorer = clone.build_scorer()
        assert scorer.use_empirical and scorer.seed == 7


class TestBrokenPoolFallback:
    """A pool that cannot fork its workers, or whose workers die, marks itself
    broken and scores every batch from then on with the serial loop."""

    @pytest.mark.parametrize("failure", ["workers_die", "fork_refused"])
    def test_broken_pool_scores_serially_and_never_rebuilds(self, monkeypatch, failure):
        from concurrent.futures import BrokenExecutor

        import repro.serving.backends as backends

        constructed = []

        class FailingExecutor:
            def __init__(self, **kwargs):
                constructed.append(kwargs)
                if failure == "fork_refused":
                    raise OSError("fork refused")

            def map(self, fn, chunks):
                raise BrokenExecutor("a worker died")

            def shutdown(self, wait=True):
                pass

        monkeypatch.setattr(backends, "ProcessPoolExecutor", FailingExecutor)
        payload = WorkerPayload.from_feedback(core_specifications(), FeedbackConfig(), seed=0)
        fallback = payload.build_scorer()
        jobs = _mixed_scenario_jobs()
        first, second = jobs[:8], jobs[8:]
        with WorkerPool(payload, max_workers=2) as pool:
            assert pool.run(first, fallback=fallback) == backends.run_serial(fallback, first)
            assert pool._broken
            assert pool.run(second, fallback=fallback) == backends.run_serial(fallback, second)
            assert len(constructed) == 1
            assert pool.starts == (1 if failure == "workers_die" else 0)
