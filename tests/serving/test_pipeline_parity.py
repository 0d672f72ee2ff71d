"""Serving-enabled pipeline runs must match the serial reference seed-for-seed."""

import dataclasses

import pytest

from repro.core import DPOAFPipeline, ServingConfig
from repro.core.config import quick_pipeline_config
from repro.driving import core_specifications, training_tasks


def _evaluation_counts(evaluation):
    return [(t.task, t.split, list(t.satisfied_counts)) for t in evaluation.per_task]


@pytest.fixture(scope="module")
def parity_runs():
    """One full (reduced-scale) run per serving mode, identical seeds."""
    results = {}
    for enabled in (True, False):
        config = dataclasses.replace(
            quick_pipeline_config(seed=0), serving=ServingConfig(enabled=enabled)
        )
        pipeline = DPOAFPipeline(
            config, specifications=core_specifications(), tasks=training_tasks()[:2], validation=()
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
        _, serial = parity_runs[False]
        assert serial.serving_metrics["cache_hits"] == 0
        assert serial.serving_metrics["jobs"] > 0
