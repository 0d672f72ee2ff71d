"""The one DPO-AF path through ``DPOAFPipeline.run``.

``run`` is a fixed sequence — pretrain, evaluate, collect pairs, augment,
train, evaluate — each stage under its own ``pipeline.*`` span.  The
contracts under test:

* the stages run in that order, one after another, never overlapping;
* the train stage is exactly ``run_dpo`` on the collected-then-augmented
  pairs;
* sampling, for pair collection and for both evaluations, is text-identical
  to the serial :func:`repro.lm.sampling.sample_responses` oracle walked task
  by task with one shared generator.
"""

import numpy as np
import pytest

from repro.core import DPOAFPipeline, quick_pipeline_config
from repro.dpo import run_dpo
from repro.driving import core_specifications, training_tasks, validation_tasks
from repro.feedback import rank_to_pairs
from repro.lm.corpus import format_prompt
from repro.lm.sampling import sample_responses
from repro.obs import tracer as obs
from repro.obs.tracer import Tracer
from repro.utils.rng import seeded_rng

#: ``(span name, phase attribute)`` of every stage, in run order.
STAGES = [
    ("pipeline.pretrain", None),
    ("pipeline.evaluate", "before"),
    ("pipeline.collect_pairs", None),
    ("pipeline.augment_pairs", None),
    ("pipeline.train", None),
    ("pipeline.evaluate", "after"),
]


def _pipeline() -> DPOAFPipeline:
    return DPOAFPipeline(
        quick_pipeline_config(seed=0),
        specifications=core_specifications(),
        tasks=training_tasks()[:2],
        validation=validation_tasks()[:1],
    )


def _traced_run(pipeline: DPOAFPipeline, **run_kwargs) -> tuple:
    """``(result, stage spans in start order)`` of one ``run`` under a fresh tracer."""
    tracer = obs.install_tracer(Tracer())
    try:
        result = pipeline.run(**run_kwargs)
    finally:
        obs.uninstall_tracer()
    spans = sorted((s for s in tracer.spans() if s.category == "pipeline"), key=lambda s: s.start_ns)
    tracer.close()
    return result, spans


def _stage_names(spans) -> list:
    return [(s.name, s.attributes.get("phase")) for s in spans]


@pytest.fixture(scope="module")
def traced_run():
    """One traced quick run; the pipeline stays open so tests can re-run stages."""
    with _pipeline() as pipeline:
        result, spans = _traced_run(pipeline)
        yield pipeline, result, spans


def _serial_oracle(pipeline, model, tokenizer, tasks, num_samples, seed) -> list:
    """``(task, prompt, responses, scores)`` per task, sampled serially.

    One generator walks the tasks in order, each task drawing its lanes with
    :func:`sample_responses` — the reference the batched frontier must match.
    """
    sampling = pipeline.config.sampling
    rng = seeded_rng(seed)
    rows = []
    for task in tasks:
        prompt = format_prompt(task)
        responses = sample_responses(
            model,
            tokenizer,
            prompt,
            num_samples,
            temperature=sampling.temperature,
            top_k=sampling.top_k,
            max_new_tokens=sampling.max_new_tokens,
            seed=rng,
        )
        rows.append((task, prompt, responses, [pipeline.score_response(task, r) for r in responses]))
    return rows


class TestStages:
    def test_stages_run_in_order_under_their_spans(self, traced_run):
        _, _, spans = traced_run
        assert _stage_names(spans) == STAGES

    def test_each_stage_ends_before_the_next_starts(self, traced_run):
        """One sequence: no stage overlaps another (nothing is streamed)."""
        _, _, spans = traced_run
        for earlier, later in zip(spans, spans[1:]):
            assert earlier.start_ns + earlier.duration_ns <= later.start_ns, (earlier.name, later.name)

    def test_augment_pairs_false_skips_only_the_augment_stage(self):
        with _pipeline() as pipeline:
            result, spans = _traced_run(pipeline, augment_pairs=False)
            collected = pipeline.collect_preference_pairs(result.dpo_result.reference, result.pretrain_result.tokenizer)
        assert _stage_names(spans) == [stage for stage in STAGES if stage[0] != "pipeline.augment_pairs"]
        assert result.preference_pairs == collected


class TestTrainStage:
    def test_pairs_are_the_collected_pairs_then_the_template_pairs(self, traced_run):
        pipeline, result, _ = traced_run
        # The reference is the pre-trained model as it was before DPO.
        collected = pipeline.collect_preference_pairs(result.dpo_result.reference, result.pretrain_result.tokenizer)
        assert collected, "the workload must sample at least one pair"
        assert result.preference_pairs == pipeline.augment_with_templates(collected)

    def test_train_stage_is_run_dpo_on_the_final_pairs(self, traced_run):
        pipeline, result, _ = traced_run
        replay = run_dpo(
            result.dpo_result.reference.clone(),
            result.pretrain_result.tokenizer,
            result.preference_pairs,
            pipeline.config.dpo,
        )
        assert replay.history.losses == result.dpo_result.history.losses
        trained = result.dpo_result.policy.state_dict()
        for key, value in replay.policy.state_dict().items():
            assert np.array_equal(trained[key], value), key


class TestSerialSamplingOracle:
    """The pipeline decodes its whole frontier in one batched wave; the text
    it scores must equal the serial sampler's, task by task."""

    def test_collected_pairs_match_the_serial_sampler(self, traced_run):
        pipeline, result, _ = traced_run
        model, tokenizer = result.dpo_result.reference, result.pretrain_result.tokenizer
        oracle = _serial_oracle(
            pipeline, model, tokenizer, pipeline.tasks,
            pipeline.config.sampling.responses_per_prompt, pipeline.config.seed,
        )
        expected = [
            pair
            for task, prompt, responses, scores in oracle
            for pair in rank_to_pairs(prompt, responses, scores, task=task.name)
        ]
        assert pipeline.collect_preference_pairs(model, tokenizer) == expected

    @pytest.mark.parametrize("phase", ["before", "after"])
    def test_evaluation_matches_the_serial_sampler(self, traced_run, phase):
        pipeline, result, _ = traced_run
        if phase == "before":
            model, evaluation = result.dpo_result.reference, result.before_evaluation
        else:
            model, evaluation = result.dpo_result.policy, result.after_evaluation
        tasks = list(pipeline.tasks) + list(pipeline.validation)
        oracle = _serial_oracle(
            pipeline, model, result.pretrain_result.tokenizer, tasks,
            pipeline.config.sampling.responses_per_prompt, seed=1234,  # evaluate_model's default
        )
        assert [(t.task, t.split, t.satisfied_counts) for t in evaluation.per_task] == [
            (task.name, task.split, scores) for task, _, _, scores in oracle
        ]
