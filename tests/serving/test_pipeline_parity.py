"""Serving-enabled pipeline runs must match the serial reference seed-for-seed."""

import pytest

from repro.core import DPOAFPipeline
from repro.core.config import quick_pipeline_config
from repro.driving import core_specifications, training_tasks
from repro.serving import FeedbackService, ServingConfig


def _evaluation_counts(evaluation):
    return [(t.task, t.split, list(t.satisfied_counts)) for t in evaluation.per_task]


@pytest.fixture(scope="module")
def parity_runs():
    """One full (reduced-scale) run per serving mode, identical seeds.

    The pipeline always serves with the default ``ServingConfig()``; the
    reference run swaps in an uncached service before ``run()``.
    """
    results = {}
    for enabled in (True, False):
        pipeline = DPOAFPipeline(
            quick_pipeline_config(seed=0),
            specifications=core_specifications(),
            tasks=training_tasks()[:2],
            validation=(),
        )
        if not enabled:
            pipeline.serving.close()
            pipeline.serving = FeedbackService(
                pipeline.specifications,
                config=ServingConfig(enabled=False),
                seed=pipeline.config.seed,
            )
        results[enabled] = (pipeline, pipeline.run(augment_pairs=True))
    yield results
    for pipeline, _ in results.values():
        pipeline.close()


class TestServingParity:
    def test_evaluations_are_bitwise_identical(self, parity_runs):
        _, served = parity_runs[True]
        _, serial = parity_runs[False]
        assert _evaluation_counts(served.before_evaluation) == _evaluation_counts(serial.before_evaluation)
        assert _evaluation_counts(served.after_evaluation) == _evaluation_counts(serial.after_evaluation)

    def test_preference_pairs_are_identical(self, parity_runs):
        _, served = parity_runs[True]
        _, serial = parity_runs[False]
        as_tuples = lambda pairs: [
            (p.task, p.prompt, p.chosen, p.rejected, p.chosen_score, p.rejected_score) for p in pairs
        ]
        assert as_tuples(served.preference_pairs) == as_tuples(serial.preference_pairs)

    def test_served_run_reports_cache_work(self, parity_runs):
        pipeline, served = parity_runs[True]
        metrics = served.serving_metrics
        assert metrics["jobs"] > 0
        # Template augmentation and repeated evaluation guarantee repeats.
        assert metrics["cache_hits"] > 0 and metrics["hit_rate"] > 0
        assert len(pipeline.serving.cache) > 0

    def test_serial_run_reports_no_cache_work(self, parity_runs):
        pipeline, serial = parity_runs[False]
        assert not pipeline.serving.config.enabled
        assert serial.serving_metrics["cache_hits"] == 0
        assert serial.serving_metrics["jobs"] > 0
