"""Round-robin fairness of the shared :class:`Dispatcher`.

A chatty service that queues a deep backlog must not starve another
service's stream: admission rotates one batch per service, while each
service's own batches still execute strictly in its submission order.
"""

import threading

import pytest

from repro.core.config import FeedbackConfig
from repro.driving import core_specifications, response_templates, task_by_name
from repro.serving import Dispatcher, FeedbackJob, FeedbackService, ServingConfig


def _service(dispatcher=None) -> FeedbackService:
    return FeedbackService(
        core_specifications(),
        feedback=FeedbackConfig(),
        config=ServingConfig(backend="serial"),
        seed=0,
        dispatcher=dispatcher,
    )


def _distinct_batches(count: int, size: int = 2) -> list:
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


class TestDispatcherRoundRobin:
    def test_round_robin_across_submitters(self):
        """With service A's backlog queued ahead, B's single task must run
        after at most one more A task — not after the whole backlog."""
        executed = []
        gate = threading.Event()

        def gated_first():
            assert gate.wait(timeout=30)
            executed.append("a0")

        def record(label):
            def run():
                executed.append(label)

            return run

        a, b = object(), object()
        with Dispatcher() as dispatcher:
            futures = [dispatcher.submit(gated_first, service=a)]
            futures += [dispatcher.submit(record(f"a{i}"), service=a) for i in range(1, 6)]
            # a0 is already executing (blocked on the gate); the backlog a1-a5
            # is queued.  B's task arrives late but must not wait out the
            # whole backlog.
            futures.append(dispatcher.submit(record("b0"), service=b))
            gate.set()
            for future in futures:
                future.result(timeout=30)
        assert executed.index("b0") <= 2, f"b0 was starved: {executed}"
        # Per-service FIFO is preserved.
        a_order = [label for label in executed if label.startswith("a")]
        assert a_order == ["a0", "a1", "a2", "a3", "a4", "a5"]

    def test_direct_submissions_share_one_queue(self):
        with Dispatcher() as dispatcher:
            results = [dispatcher.submit(lambda i=i: i) for i in range(4)]
            assert [future.result(timeout=10) for future in results] == [0, 1, 2, 3]

    def test_queued_batches_counts_admitted_work(self):
        gate = threading.Event()
        with Dispatcher() as dispatcher:
            first = dispatcher.submit(lambda: gate.wait(timeout=30))
            second = dispatcher.submit(lambda: None)
            third = dispatcher.submit(lambda: None)
            # first is executing (not queued); the others wait their turn.
            deadline = [dispatcher.queued_batches]
            gate.set()
            for future in (first, second, third):
                future.result(timeout=30)
            assert deadline[0] >= 1
            assert dispatcher.queued_batches == 0

    def test_submit_errors_surface_on_the_future(self):
        with Dispatcher() as dispatcher:
            future = dispatcher.submit(lambda: 1 / 0)
            with pytest.raises(ZeroDivisionError):
                future.result(timeout=10)


class TestServiceFairness:
    def test_chatty_service_does_not_starve_a_second_stream(self):
        """Regression: one service queueing many batches while gated must not
        push another service's single batch to the back of the line."""
        chatty_batches = _distinct_batches(5)
        quiet_batch = _distinct_batches(1, size=3)[0]
        completion_order = []
        gate = threading.Event()

        def record_completions(service, label):
            # The dispatcher runs one batch at a time, so the order batches
            # finish scoring in is the order they complete in.
            score_batch = service.score_batch

            def recording(jobs):
                scores = score_batch(jobs)
                completion_order.append(label(jobs))
                return scores

            service.score_batch = recording

        with Dispatcher() as dispatcher:
            chatty = _service(dispatcher)
            quiet = _service(dispatcher)
            record_completions(chatty, lambda jobs: f"chatty{chatty_batches.index(jobs)}")
            record_completions(quiet, lambda jobs: "quiet")
            original = chatty._scorer.score

            def gated_score(*args, **kwargs):
                assert gate.wait(timeout=30), "test never opened the gate"
                return original(*args, **kwargs)

            chatty._scorer.score = gated_score
            try:
                handles = [chatty.submit_batch(batch) for batch in chatty_batches]
                handles.append(quiet.submit_batch(quiet_batch))
                gate.set()
                for handle in handles:
                    handle.result(timeout=30)
            finally:
                gate.set()
                chatty.close()
                quiet.close()

        # Round-robin: the quiet batch completes after at most two chatty
        # batches (one already executing, one more from the rotation) — under
        # FIFO it would have been dead last.
        assert completion_order.index("quiet") <= 2, completion_order
        assert [c for c in completion_order if c.startswith("chatty")] == [
            f"chatty{i}" for i in range(5)
        ], "per-service submission order must survive the rotation"

    def test_fair_interleaving_preserves_scores(self):
        """Fairness must never change what a batch scores — only when."""
        batches = _distinct_batches(3)
        reference = FeedbackService(
            core_specifications(),
            feedback=FeedbackConfig(),
            config=ServingConfig(enabled=False),
            seed=0,
        )
        expected = [reference.score_batch(batch) for batch in batches]
        with Dispatcher() as dispatcher:
            first = _service(dispatcher)
            second = _service(dispatcher)
            try:
                handles = [
                    (first if i % 2 == 0 else second).submit_batch(batch)
                    for i, batch in enumerate(batches)
                ]
                assert [handle.result(timeout=30) for handle in handles] == expected
            finally:
                first.close()
                second.close()
