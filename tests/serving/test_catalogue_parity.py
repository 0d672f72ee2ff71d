"""Every catalogue task scores the same through the service's cache as on the
uncached reference path.

The service keys its cache on ``(scenario, digest of the canonical text)``
alone. The rule book, the feedback mode, the seed and each scenario's world
model are fixed for a service's lifetime, and the task name only labels the
controller. These tests check that claim on every task of the catalogue: the
cached scores equal the reference, and the reference does not depend on the
task name the key leaves out.
"""

import pytest

from repro.driving import all_specifications, all_tasks, response_templates
from repro.serving import FeedbackJob, FeedbackService, ServingConfig, canonicalize_response

TASKS = all_tasks()
KINDS = ("compliant", "flawed", "vague")


def _templates(task) -> list:
    return [text for kind in KINDS for text in response_templates(task.name, kind)]


def _library(task) -> list:
    """The task's templates, then each as a whitespace variant, then each again."""
    texts = _templates(task)
    return texts + [f"  {text}\n\n".replace("\n", " \r\n") for text in texts] + texts


@pytest.fixture(scope="module")
def reference() -> FeedbackService:
    return FeedbackService(all_specifications(), config=ServingConfig(enabled=False))


@pytest.mark.parametrize("task", TASKS, ids=lambda task: task.name)
def test_cached_scores_match_the_reference(task, reference):
    texts = _library(task)
    service = FeedbackService(all_specifications())
    scores = service.score_responses(task, texts)
    assert scores == reference.score_responses(task, texts)
    # Variants and repeats collapse onto one key per distinct template.
    distinct = len(set(_templates(task)))
    assert len({canonicalize_response(text) for text in texts}) == distinct
    assert service.metrics.unique_jobs == distinct == len(service.cache)
    # A second pass is answered by the cache alone.
    assert service.score_responses(task, texts) == scores
    assert service.metrics.cache_misses == distinct
    assert service.metrics.cache_hits == distinct


@pytest.mark.parametrize("task", TASKS, ids=lambda task: task.name)
def test_score_ignores_the_task_name(task, reference):
    texts = _templates(task)
    renamed = [FeedbackJob(task="renamed", scenario=task.scenario, response=text) for text in texts]
    assert reference.score_batch(renamed) == reference.score_responses(task, texts)

