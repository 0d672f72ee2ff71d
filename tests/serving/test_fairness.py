"""Round-robin fairness of the :class:`Dispatcher`.

A chatty submitter that queues a deep backlog must not starve another key's
stream: admission rotates one call per key, while each key's own calls still
execute strictly in its submission order.  The jobs daemon relies on this,
submitting each client's ``score_batch`` work under a per-client key.
"""

import threading

import pytest

from repro.core.config import FeedbackConfig
from repro.driving import core_specifications, response_templates, task_by_name
from repro.serving import Dispatcher, FeedbackJob, FeedbackService, ServingConfig


def _service() -> FeedbackService:
    return FeedbackService(
        core_specifications(),
        feedback=FeedbackConfig(),
        config=ServingConfig(),
        seed=0,
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
        """With key A's backlog queued ahead, B's single task must run
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
            futures = [dispatcher.submit(gated_first, key=a)]
            futures += [dispatcher.submit(record(f"a{i}"), key=a) for i in range(1, 6)]
            # a0 is already executing (blocked on the gate); the backlog a1-a5
            # is queued.  B's task arrives late but must not wait out the
            # whole backlog.
            futures.append(dispatcher.submit(record("b0"), key=b))
            gate.set()
            for future in futures:
                future.result(timeout=30)
        assert executed.index("b0") <= 2, f"b0 was starved: {executed}"
        # Per-key FIFO is preserved.
        a_order = [label for label in executed if label.startswith("a")]
        assert a_order == ["a0", "a1", "a2", "a3", "a4", "a5"]

    def test_three_keys_rotate_one_call_each(self):
        """With every key's backlog queued behind a running call, the thread
        takes one call per key in the order the keys arrived."""
        executed = []
        running, gate = threading.Event(), threading.Event()

        def record(label):
            def run():
                executed.append(label)

            return run

        def gated_first():
            running.set()
            assert gate.wait(timeout=30)
            executed.append("a0")

        a, b, c = object(), object(), object()
        with Dispatcher() as dispatcher:
            futures = [dispatcher.submit(gated_first, key=a)]
            assert running.wait(timeout=30)
            for key, name in ((a, "a"), (b, "b"), (c, "c")):
                futures += [dispatcher.submit(record(f"{name}{i}"), key=key) for i in (1, 2)]
            gate.set()
            for future in futures:
                future.result(timeout=30)
        assert executed == ["a0", "a1", "b1", "c1", "a2", "b2", "c2"]

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


class TestClientFairness:
    """One service scoring for two clients, each under its own key — the
    jobs daemon's shape."""

    def test_chatty_client_does_not_starve_a_second_stream(self):
        """Regression: one client queueing many batches while gated must not
        push another client's single batch to the back of the line."""
        chatty_batches = _distinct_batches(5)
        quiet_batch = _distinct_batches(1, size=3)[0]
        completion_order = []
        gate = threading.Event()
        service = _service()
        original = service._scorer.score
        chatty_responses = {job.response for batch in chatty_batches for job in batch}

        def gated_score(task, scenario, response):
            if response in chatty_responses:
                assert gate.wait(timeout=30), "test never opened the gate"
            return original(task, scenario, response)

        def scored(jobs, label):
            scores = service.score_batch(jobs)
            # One call runs at a time, so finishing order is completion order.
            completion_order.append(label)
            return scores

        service._scorer.score = gated_score
        chatty, quiet = object(), object()
        try:
            with Dispatcher() as dispatcher:
                futures = [
                    dispatcher.submit(scored, batch, f"chatty{i}", key=chatty)
                    for i, batch in enumerate(chatty_batches)
                ]
                futures.append(dispatcher.submit(scored, quiet_batch, "quiet", key=quiet))
                gate.set()
                for future in futures:
                    future.result(timeout=30)
        finally:
            gate.set()
            service.close()

        # Round-robin: the quiet batch completes after at most two chatty
        # batches (one already executing, one more from the rotation) — under
        # FIFO it would have been dead last.
        assert completion_order.index("quiet") <= 2, completion_order
        assert [c for c in completion_order if c.startswith("chatty")] == [
            f"chatty{i}" for i in range(5)
        ], "per-key submission order must survive the rotation"

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
        clients = (object(), object())
        with _service() as service, Dispatcher() as dispatcher:
            futures = [
                dispatcher.submit(service.score_batch, batch, key=clients[i % 2])
                for i, batch in enumerate(batches)
            ]
            assert [future.result(timeout=30) for future in futures] == expected
