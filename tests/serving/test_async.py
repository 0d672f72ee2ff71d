"""Submitted-batch tests.

The contract under test: ``submit_batch`` returns scores bitwise-identical to
the synchronous ``score_batch`` reference; queued batches are scored in
submission order, each as one ``score_batch`` call, on the thread that
collects a handle, and never in another process; and ``close()`` scores what
is still queued.
"""

import multiprocessing
import os
import sys
import threading
from collections import Counter

import pytest

from repro.core.config import FeedbackConfig
from repro.driving import core_specifications, response_templates, task_by_name
from repro.serving import FeedbackJob, FeedbackService, ServingConfig


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


#: Both scoring modes: formal verification and simulator (empirical) traces.
FEEDBACK_MODES = pytest.mark.parametrize(
    "feedback", [FeedbackConfig(), FeedbackConfig(use_empirical=True)], ids=["formal", "empirical"]
)


def _service(feedback: FeedbackConfig = FeedbackConfig()) -> FeedbackService:
    return FeedbackService(core_specifications(), feedback=feedback, seed=0)


def _reference_scores(jobs, feedback: FeedbackConfig = FeedbackConfig()) -> list:
    return FeedbackService(
        core_specifications(), feedback=feedback, seed=0, config=ServingConfig(enabled=False)
    ).score_batch(jobs)


class TestSubmitBatch:
    @FEEDBACK_MODES
    def test_async_submission_matches_serial_reference(self, feedback):
        jobs = _mixed_scenario_jobs()
        reference = _reference_scores(jobs, feedback)
        with _service(feedback) as service:
            handle = service.submit_batch(jobs)
            assert handle.result() == reference

    @FEEDBACK_MODES
    def test_interleaved_async_batches_match_sequential_score_batch(self, feedback):
        """Several in-flight batches must resolve exactly like sequential calls."""
        jobs = _mixed_scenario_jobs()
        batches = [jobs[i::3] for i in range(3)]  # overlapping content across batches
        with _service(feedback) as sync:
            expected = [sync.score_batch(batch) for batch in batches]
        with _service(feedback) as service:
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
        service = _service()
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

    def test_concurrent_submitters_share_one_queue(self):
        """Racing producers queue on the one service: every handle resolves
        to the scores its own batch has under the reference path."""
        import threading

        jobs = _mixed_scenario_jobs()
        slices = [jobs[i::4] for i in range(4)]
        with _service() as service:
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

    def test_each_submitted_batch_is_one_score_batch_call_on_the_collecting_thread(self, monkeypatch):
        """Every submitted batch runs as one score_batch call on the thread
        that collects it — the seam a caller wrapping score_batch (a
        profiler, a probe) relies on.  Submitting scores nothing."""
        calls = []
        real_score_batch = FeedbackService.score_batch

        def recording(self, jobs):
            calls.append((threading.get_ident(), len(jobs)))
            return real_score_batch(self, jobs)

        monkeypatch.setattr(FeedbackService, "score_batch", recording)
        jobs = _mixed_scenario_jobs()
        batches = [jobs[:5], jobs[5:]]
        with _service() as service:
            handles = [service.submit_batch(batch) for batch in batches]
            assert calls == [] and not any(handle.done() for handle in handles)
            for handle in handles:
                handle.result()
        assert calls == [(threading.get_ident(), len(batch)) for batch in batches]

    def test_collecting_a_later_handle_scores_the_earlier_ones_first(self, monkeypatch):
        scored = []
        real_score_batch = FeedbackService.score_batch

        def recording(self, jobs):
            scored.append(list(jobs))
            return real_score_batch(self, jobs)

        monkeypatch.setattr(FeedbackService, "score_batch", recording)
        jobs = _mixed_scenario_jobs()
        batches = [jobs[i::4] for i in range(4)]
        with _service() as sync:
            expected = [real_score_batch(sync, batch) for batch in batches]
        with _service() as service:
            handles = [service.submit_batch(batch) for batch in batches]
            assert handles[2].result() == expected[2]
            assert scored == batches[:3]
            assert [handle.done() for handle in handles] == [True, True, True, False]
            assert [handle.result() for handle in handles] == expected
            assert scored == batches

    def test_a_second_collector_waits_for_the_batches_ahead(self):
        """While one thread scores, another collecting a later batch waits
        for it; ``timeout`` bounds only that wait."""
        from concurrent.futures import TimeoutError as FutureTimeoutError

        batches = [_mixed_scenario_jobs()[i::2] for i in range(2)]
        expected = [_reference_scores(batch) for batch in batches]
        service = _service()
        gate, entered = threading.Event(), threading.Event()
        original = service._scorer.score

        def gated_score(*args):
            entered.set()
            assert gate.wait(timeout=30), "the test never released the scoring gate"
            return original(*args)

        service._scorer.score = gated_score
        first, second = (service.submit_batch(batch) for batch in batches)
        collector = threading.Thread(target=first.result)
        collector.start()
        try:
            assert entered.wait(timeout=30)
            with pytest.raises(FutureTimeoutError):
                second.result(timeout=0.05)
            assert not first.done() and not second.done()
        finally:
            gate.set()
            collector.join(timeout=30)
        assert not collector.is_alive()
        assert second.result(timeout=30) == expected[1]
        assert first.result() == expected[0]
        service.close()

    def test_racing_submitters_and_collectors_score_each_batch_once(self, monkeypatch):
        """More threads than cores, each submitting and collecting its own
        batches under a short switch interval: every batch is scored
        exactly once, one at a time, and each handle returns its own
        batch's scores."""
        jobs = _mixed_scenario_jobs()
        batches = [[jobs[i], jobs[(i * 7) % len(jobs)]] for i in range(len(jobs))]
        expected = [_reference_scores(batch) for batch in batches]
        scored, running = [], []
        real_score_batch = FeedbackService.score_batch

        def recording(self, batch):
            running.append(batch)
            assert len(running) == 1, "two batches scored at once"
            try:
                scored.append(tuple(batch))
                return real_score_batch(self, batch)
            finally:
                running.pop()

        monkeypatch.setattr(FeedbackService, "score_batch", recording)
        results: dict = {}
        with _service() as service:

            def client(indices):
                handles = [(i, service.submit_batch(batches[i])) for i in indices]
                for i, handle in handles:
                    results[i] = handle.result(timeout=60)

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                threads = [threading.Thread(target=client, args=(range(k, len(batches), 6),)) for k in range(6)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
        assert Counter(scored) == Counter(tuple(batch) for batch in batches)
        assert [results[i] for i in range(len(batches))] == expected

    def test_a_failing_batch_reports_through_its_own_handle(self, monkeypatch):
        real_score_batch = FeedbackService.score_batch

        def failing(self, jobs):
            if len(jobs) == 1:
                raise ValueError("the one-job batch")
            return real_score_batch(self, jobs)

        monkeypatch.setattr(FeedbackService, "score_batch", failing)
        jobs = _mixed_scenario_jobs()
        with _service() as service:
            bad, good = service.submit_batch(jobs[:1]), service.submit_batch(jobs[1:])
            assert good.result() == _reference_scores(jobs[1:])
            assert isinstance(bad.exception(), ValueError)
            with pytest.raises(ValueError, match="one-job batch"):
                bad.result()

    def test_submit_responses_matches_score_responses(self):
        task = task_by_name("turn_right_traffic_light")
        responses = list(response_templates(task.name, "compliant")) + ["1. Drive nicely."]
        with _service() as service:
            pending = service.submit_responses(task, responses)
            assert pending.result() == service.score_responses(task, responses)


class TestServiceLifecycle:
    def test_close_then_submit_raises(self):
        service = _service()
        service.close()
        with pytest.raises(RuntimeError):
            service.submit_batch(_mixed_scenario_jobs()[:2])

    def test_close_is_idempotent_and_synchronous_path_survives(self):
        task = task_by_name("enter_roundabout")
        service = _service()
        response = response_templates(task.name, "compliant")[0]
        before = service.score_response(task, response)
        service.close()
        service.close()
        assert service.score_response(task, response) == before

    def test_close_drains_pending_batches(self):
        jobs = _mixed_scenario_jobs()
        service = _service()
        handle = service.submit_batch(jobs)
        service.close()
        assert handle.done() and handle.result() == _reference_scores(jobs)


def _scoring_threads(service) -> list:
    """Record the thread of every miss ``service`` scores."""
    threads = []
    score = service._scorer.score

    def recording(*args):
        threads.append(threading.get_ident())
        return score(*args)

    service._scorer.score = recording
    return threads


class TestInlineScoring:
    def test_score_batch_scores_misses_on_the_calling_thread(self):
        jobs = _mixed_scenario_jobs()
        with _service() as service:
            threads = _scoring_threads(service)
            assert service.score_batch(jobs) == _reference_scores(jobs)
        assert len(threads) == 15  # 18 jobs, 3 exact duplicates
        assert set(threads) == {threading.get_ident()}

    def test_a_submitted_batch_is_scored_on_the_thread_that_collects_it(self):
        jobs = _mixed_scenario_jobs()
        reference = _reference_scores(jobs)
        with _service() as service:
            threads = _scoring_threads(service)
            handle = service.submit_batch(jobs)
            results = []
            collector = threading.Thread(target=lambda: results.append(handle.result(timeout=60)))
            collector.start()
            collector.join(timeout=60)
            assert not collector.is_alive() and results == [reference]
        assert len(threads) == 15
        assert set(threads) == {collector.ident} and collector.ident != threading.get_ident()

    @pytest.mark.parametrize("submit", [False, True], ids=["score_batch", "submit_batch"])
    def test_scoring_never_starts_a_process(self, monkeypatch, submit):
        jobs = _mixed_scenario_jobs()
        reference = _reference_scores(jobs)

        def refuse(*args, **kwargs):
            raise AssertionError("scoring tried to start a process")

        monkeypatch.setattr(os, "fork", refuse)
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
        with _service() as service:
            scores = service.submit_batch(jobs).result(timeout=60) if submit else service.score_batch(jobs)
        assert scores == reference
        assert multiprocessing.active_children() == []


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
