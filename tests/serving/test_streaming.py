"""Pair construction from submitted batches, and the service's Dispatcher.

The contracts under test:

* pairs built from ``submit_batch`` handles drained in submission order are
  identical — same pair list, bitwise-identical scores — to pairs built from
  the blocking ``score_batch`` path;
* every :class:`FeedbackService` owns its :class:`Dispatcher`, and closing
  the service stops that dispatcher's thread; the pipeline scores on the
  calling thread and starts none.
"""

import threading

import pytest

from repro.core.config import FeedbackConfig
from repro.driving import core_specifications, response_templates, task_by_name
from repro.feedback import rank_to_pairs
from repro.lm import format_prompt
from repro.serving import Dispatcher, FeedbackJob, FeedbackService, ServingConfig

TASK_NAMES = ("turn_right_traffic_light", "enter_roundabout", "merge_onto_highway")


def _service(feedback: FeedbackConfig = FeedbackConfig()) -> FeedbackService:
    return FeedbackService(core_specifications(), feedback=feedback, seed=0)


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
    @pytest.mark.parametrize(
        "feedback", [FeedbackConfig(), FeedbackConfig(use_empirical=True)], ids=["formal", "empirical"]
    )
    def test_streamed_pairs_match_blocking_pairs(self, feedback):
        """Submitted batches, ranked as each handle resolves, yield the same
        pair lists — bitwise-identical scores — as the blocking path."""
        batches = _task_batches()

        blocking = []
        with _service(feedback) as sync:
            for task, responses in batches:
                scores = sync.score_responses(task, responses)
                blocking.append(
                    rank_to_pairs(format_prompt(task), responses, scores, task=task.name)
                )

        with _service(feedback) as service:
            pending = [
                (task, responses, service.submit_responses(task, responses))
                for task, responses in batches
            ]
            streamed = [
                rank_to_pairs(format_prompt(task), responses, handle.result(), task=task.name)
                for task, responses, handle in pending
            ]

        assert streamed == blocking

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

    def test_pipeline_scores_each_task_on_the_calling_thread(self, monkeypatch):
        """The pipeline scores on the calling thread, task by task: task 0 is
        ranked before task 1 reaches the scorer."""
        import repro.core.pipeline as pipeline_module
        from repro.core import DPOAFPipeline
        from repro.core.config import quick_pipeline_config
        from repro.driving import training_tasks

        tasks = training_tasks()[:2]
        events = []
        real_rank = pipeline_module.rank_to_pairs

        def rank(prompt, responses, scores, *, task):
            events.append(("rank", task))
            return real_rank(prompt, responses, scores, task=task)

        monkeypatch.setattr(pipeline_module, "rank_to_pairs", rank)
        with DPOAFPipeline(
            quick_pipeline_config(seed=0),
            specifications=core_specifications(),
            tasks=tasks,
            validation=(),
        ) as pipeline:
            score = pipeline.serving._scorer.score

            def recording(task, scenario, response):
                assert threading.current_thread() is threading.main_thread()
                if ("score", task) not in events:
                    events.append(("score", task))
                return score(task, scenario, response)

            pipeline.serving._scorer.score = recording
            assert pipeline.augment_with_templates([], per_task=3)
        first, second = (task.name for task in tasks)
        assert events == [("score", first), ("rank", first), ("score", second), ("rank", second)]


class TestServiceDispatcher:
    def test_each_service_owns_its_dispatcher(self):
        """Two services never share a dispatcher: closing one stops only its
        own, and the other keeps serving."""
        (task_a, responses_a), (task_b, responses_b) = _task_batches()[:2]
        first, second = _service(), _service()
        try:
            handle_a = first.submit_responses(task_a, responses_a)
            handle_b = second.submit_responses(task_b, responses_b)
            assert first._dispatcher is not second._dispatcher
            jobs_b = [
                FeedbackJob(task=task_b.name, scenario=task_b.scenario, response=r)
                for r in responses_b
            ]
            assert handle_b.result() == _reference_scores(jobs_b)

            first_dispatcher = first._dispatcher
            first.close()
            assert handle_a.done() and first_dispatcher.closed
            assert not second._dispatcher.closed
            assert second.submit_responses(task_b, responses_b).result() == _reference_scores(jobs_b)
        finally:
            first.close()
            second.close()

    def test_closed_dispatcher_rejects_submissions(self):
        dispatcher = Dispatcher()
        dispatcher.close()
        with pytest.raises(RuntimeError):
            dispatcher.submit(lambda: None)

    def test_private_dispatcher_closes_with_its_service(self):
        service = _service()
        handle = service.submit_batch(_distinct_miss_batches(1)[0])
        dispatcher = service._dispatcher
        assert dispatcher is not None
        service.close()
        assert handle.done()
        assert dispatcher.closed

    def test_close_leaves_no_live_dispatcher_thread(self):
        before = set(threading.enumerate())
        service = _service()
        service.submit_batch(_distinct_miss_batches(1)[0]).result(timeout=30)
        started = _dispatch_threads(before)
        assert started, "submit_batch never started a dispatcher thread"
        service.close()
        for thread in started:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in started)

    def test_pipeline_starts_no_dispatcher_thread(self):
        """The pipeline scores synchronously: augmenting pairs, and closing,
        leave no dispatcher thread behind, so training forks from a process
        with one thread."""
        from repro.core import DPOAFPipeline
        from repro.core.config import quick_pipeline_config
        from repro.driving import training_tasks

        before = set(threading.enumerate())
        with DPOAFPipeline(
            quick_pipeline_config(seed=0),
            specifications=core_specifications(),
            tasks=training_tasks()[:1],
            validation=(),
        ) as pipeline:
            assert pipeline.augment_with_templates([], per_task=2)
            assert pipeline.serving._dispatcher is None
            assert _dispatch_threads(before) == []
        assert _dispatch_threads(before) == []


def _dispatch_threads(before: set) -> list:
    """Dispatcher threads started since ``before`` was taken."""
    return [
        thread
        for thread in threading.enumerate()
        if thread not in before and thread.name.startswith("feedback-dispatch")
    ]
