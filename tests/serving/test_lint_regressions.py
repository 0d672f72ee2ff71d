"""Regression tests for fixes surfaced by the repro-lint baseline sweep.

Each test pins a behaviour the linter's first run over the tree flagged and
the sweep fixed; the corresponding rule now keeps it fixed.
"""

from __future__ import annotations

from repro.serving.scheduler import FeedbackJob, FeedbackService


def test_prepare_scenarios_runs_in_sorted_order():
    """`_prepare_scenarios` iterated a set — preparation order (and any RNG
    it consumes) depended on hash order.  It must be sorted."""

    class RecordingScorer:
        def __init__(self):
            self.prepared = []

        def prepare(self, scenario):
            self.prepared.append(scenario)

    service = object.__new__(FeedbackService)
    service._scorer = RecordingScorer()
    jobs = [
        FeedbackJob(task=f"t{i}", scenario=name, response="r")
        for i, name in enumerate(["zebra", "alpha", "mid", "alpha", "zebra"])
    ]
    service._prepare_scenarios(jobs)
    assert service._scorer.prepared == ["alpha", "mid", "zebra"]


def test_scenario_digest_memo_is_thread_safe(monkeypatch):
    """`scenario_digest` mutated its memo off-lock while the batch path
    mutated it under `_batch_lock` — concurrent public callers could race the
    check-then-insert.  The digest is now the model checker's fingerprint,
    whose memo computes under the checker's lock."""
    import threading

    from repro.modelcheck import fastpath

    calls = []

    def fake_fingerprint(model):
        calls.append(model)
        return f"digest-{model}"

    monkeypatch.setattr(fastpath, "model_fingerprint", fake_fingerprint)
    service = FeedbackService({}, model_builder=lambda scenario: scenario)

    barrier = threading.Barrier(8)
    results = []

    def worker():
        barrier.wait()
        results.append(service.scenario_digest("intersection"))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)
    assert results == ["digest-intersection"] * 8
    # The lock serialises the check-then-insert: one computation, not eight.
    assert len(calls) == 1
