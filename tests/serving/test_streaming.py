"""Pair construction from submitted batches, and the shared Dispatcher.

The contracts under test:

* pairs built from ``submit_batch`` handles drained in submission order are
  identical — same pair list, bitwise-identical scores — to pairs built from
  the blocking ``score_batch`` path, on every backend;
* one :class:`Dispatcher` can serve several :class:`FeedbackService`
  instances, and closing a service never tears down a shared dispatcher.
"""

import threading

import pytest

from repro.core.config import FeedbackConfig
from repro.driving import core_specifications, response_templates, task_by_name
from repro.feedback import rank_to_pairs
from repro.lm import format_prompt
from repro.serving import BACKENDS, Dispatcher, FeedbackJob, FeedbackService, ServingConfig

TASK_NAMES = ("turn_right_traffic_light", "enter_roundabout", "merge_onto_highway")


def _service(backend: str = "serial", dispatcher=None, **config_kwargs) -> FeedbackService:
    return FeedbackService(
        core_specifications(),
        feedback=FeedbackConfig(),
        config=ServingConfig(backend=backend, max_workers=2, **config_kwargs),
        seed=0,
        dispatcher=dispatcher,
    )


def _reference_scores(jobs) -> list:
    return FeedbackService(
        core_specifications(), feedback=FeedbackConfig(), seed=0, config=ServingConfig(enabled=False)
    ).score_batch(jobs)


def _task_batches() -> list:
    """``(task, responses)`` per task — the shape pair collection submits."""
    batches = []
    for name in TASK_NAMES:
        task = task_by_name(name)
        responses = list(response_templates(name, "compliant"))
        responses += list(response_templates(name, "flawed"))[:2]
        batches.append((task, responses))
    return batches


def _distinct_miss_batches(count: int, size: int = 3) -> list:
    """``count`` batches of canonically distinct, parseable responses.

    Every response is unique across all batches, so each batch is pure cache
    misses — each must actually reach the scorer.
    """
    task = task_by_name("enter_roundabout")
    base = response_templates(task.name, "compliant")[0].rstrip("\n")
    steps = len(base.splitlines())
    batches, counter = [], 0
    for _ in range(count):
        jobs = []
        for _ in range(size):
            suffix = "".join(
                f"\n{steps + 1 + extra}. If there is a pedestrian, stop."
                for extra in range(counter + 1)
            )
            counter += 1
            jobs.append(FeedbackJob(task=task.name, scenario=task.scenario, response=base + suffix))
        batches.append(jobs)
    return batches


class TestStreamingPairConstruction:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_streamed_pairs_match_blocking_pairs(self, backend):
        """Submitted batches, ranked as each handle resolves, yield the same
        pair lists — bitwise-identical scores — as the blocking path."""
        batches = _task_batches()

        blocking = []
        with _service(backend) as sync:
            for task, responses in batches:
                scores = sync.score_responses(task, responses)
                blocking.append(
                    rank_to_pairs(format_prompt(task), responses, scores, task=task.name)
                )

        with _service(backend) as service:
            pending = [
                (task, responses, service.submit_responses(task, responses))
                for task, responses in batches
            ]
            streamed = [
                rank_to_pairs(format_prompt(task), responses, handle.result(), task=task.name)
                for task, responses, handle in pending
            ]

        assert streamed == blocking, backend

    def test_pipeline_streaming_matches_task_order_assembly(self):
        """augment_with_templates submits every task's batch up front yet must
        return the same list a synchronous task-by-task loop produces."""
        from repro.core import DPOAFPipeline
        from repro.core.config import quick_pipeline_config
        from repro.driving import training_tasks

        with DPOAFPipeline(
            quick_pipeline_config(seed=0),
            specifications=core_specifications(),
            tasks=training_tasks()[:2],
            validation=(),
        ) as pipeline:
            augmented = pipeline.augment_with_templates([], per_task=3)
            # Reference: the same template workload drained strictly in task
            # order through the synchronous API.
            expected = []
            from repro.driving.responses import VAGUE_RESPONSES, response_templates as templates

            for task in pipeline.tasks:
                prompt = format_prompt(task)
                candidates = (
                    list(templates(task.name, "compliant"))
                    + list(templates(task.name, "flawed"))[:2]
                    + [VAGUE_RESPONSES[0]]
                )
                scores = pipeline.serving.score_responses(task, candidates)
                expected.extend(rank_to_pairs(prompt, candidates, scores, task=task.name)[:3])
        assert augmented == expected

    def test_pipeline_ranks_a_task_while_the_next_verifies(self, monkeypatch):
        """Handles drain in task order, so task *k* is ranked while task
        *k+1* verifies.  Here task 1's scoring waits until task 0 has been
        ranked — which times out if ranking waited for every batch."""
        import repro.core.pipeline as pipeline_module
        from repro.core import DPOAFPipeline
        from repro.core.config import quick_pipeline_config
        from repro.driving import training_tasks

        tasks = training_tasks()[:2]
        first_ranked = threading.Event()
        gated_scores = []
        real_rank = pipeline_module.rank_to_pairs

        def rank(prompt, responses, scores, *, task):
            if task == tasks[0].name:
                first_ranked.set()
            return real_rank(prompt, responses, scores, task=task)

        monkeypatch.setattr(pipeline_module, "rank_to_pairs", rank)
        with DPOAFPipeline(
            quick_pipeline_config(seed=0),
            specifications=core_specifications(),
            tasks=tasks,
            validation=(),
        ) as pipeline:
            score = pipeline.serving._scorer.score

            def gated(task, scenario, response):
                if task == tasks[1].name:
                    assert first_ranked.wait(timeout=30), "task 1 verified before task 0 was ranked"
                    gated_scores.append(response)
                return score(task, scenario, response)

            pipeline.serving._scorer.score = gated
            assert pipeline.augment_with_templates([], per_task=3)
        assert gated_scores, "task 1 never reached the scorer"


class TestSharedDispatcher:
    def test_two_services_share_one_dispatcher(self):
        batches = _task_batches()
        with Dispatcher() as dispatcher:
            first = _service("serial", dispatcher=dispatcher)
            second = _service("serial", dispatcher=dispatcher)
            assert dispatcher.active_services == 2

            task_a, responses_a = batches[0]
            task_b, responses_b = batches[1]
            handle_a = first.submit_responses(task_a, responses_a)
            handle_b = second.submit_responses(task_b, responses_b)
            jobs_a = [
                FeedbackJob(task=task_a.name, scenario=task_a.scenario, response=r)
                for r in responses_a
            ]
            jobs_b = [
                FeedbackJob(task=task_b.name, scenario=task_b.scenario, response=r)
                for r in responses_b
            ]
            assert handle_a.result() == _reference_scores(jobs_a)
            assert handle_b.result() == _reference_scores(jobs_b)

            # Closing one service drains only its own work; the dispatcher
            # keeps serving the other.
            first.close()
            assert dispatcher.active_services == 1
            again = second.submit_responses(task_b, responses_b)
            assert again.result() == _reference_scores(jobs_b)
            second.close()
            assert dispatcher.active_services == 0
        assert dispatcher.closed

    def test_closed_dispatcher_rejects_submissions_and_registration(self):
        dispatcher = Dispatcher()
        dispatcher.close()
        with pytest.raises(RuntimeError):
            dispatcher.submit(lambda: None)
        with pytest.raises(RuntimeError):
            _service("serial", dispatcher=dispatcher)

    def test_close_waits_for_its_batches_on_a_borrowed_dispatcher(self):
        """close() on a shared dispatcher drains this service's batches — it
        must not return while one is still queued behind another service's."""
        first_batch, second_batch = _distinct_miss_batches(2)
        with Dispatcher() as dispatcher:
            blocker = _service("serial", dispatcher=dispatcher)
            service = _service("serial", dispatcher=dispatcher)
            gate = threading.Event()
            score = blocker._scorer.score

            def gated(*args):
                assert gate.wait(timeout=30), "test never opened the scoring gate"
                return score(*args)

            blocker._scorer.score = gated
            blocker.submit_batch(first_batch)  # holds the dispatcher thread
            handle = service.submit_batch(second_batch)  # queued behind it
            closer = threading.Thread(target=service.close)
            closer.start()
            closer.join(timeout=0.5)
            assert closer.is_alive(), "close() returned while its batch was still queued"
            gate.set()
            closer.join(timeout=30)
            assert not closer.is_alive()
            assert handle.done() and handle.result() == _reference_scores(second_batch)
            blocker.close()
            assert dispatcher.active_services == 0 and not dispatcher.closed

    def test_failed_submission_does_not_wedge_close(self):
        """A batch the dispatcher refused is uncounted, so close() has
        nothing of it to wait for."""
        dispatcher = Dispatcher()
        service = _service("serial", dispatcher=dispatcher)
        dispatcher.close()
        with pytest.raises(RuntimeError):
            service.submit_batch(_distinct_miss_batches(1)[0])
        closer = threading.Thread(target=service.close)
        closer.start()
        closer.join(timeout=30)
        assert not closer.is_alive(), "close() waited on a batch that was never submitted"

    def test_private_dispatcher_closes_with_its_service(self):
        service = _service("serial")
        handle = service.submit_batch(_distinct_miss_batches(1)[0])
        dispatcher = service._dispatcher
        assert dispatcher is not None and service._owns_dispatcher
        service.close()
        assert handle.done()
        assert dispatcher.closed

    def test_pipeline_shares_its_dispatcher_with_the_service(self):
        from repro.core import DPOAFPipeline
        from repro.core.config import quick_pipeline_config
        from repro.driving import training_tasks

        with DPOAFPipeline(
            quick_pipeline_config(seed=0),
            specifications=core_specifications(),
            tasks=training_tasks()[:1],
            validation=(),
        ) as pipeline:
            assert pipeline.serving._dispatcher is pipeline.dispatcher
            assert pipeline.dispatcher.active_services == 1
            assert pipeline.augment_with_templates([], per_task=2)
        assert pipeline.dispatcher.closed
