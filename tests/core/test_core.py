"""Tests for configuration, system-model helpers and pipeline components."""

import pytest

from repro.automata.transition_system import build_model_from_system
from repro.core import DPOAFPipeline, conservative_driving_model, paper_scale_config, quick_pipeline_config
from repro.core.pipeline import ModelEvaluation, TaskEvaluation
from repro.driving import core_specifications, task_by_name, training_tasks
from repro.driving.propositions import DRIVING_VOCABULARY
from repro.driving.responses import response_templates
from repro.errors import TrainingError
from repro.lm import ModelConfig, Tokenizer, TransformerLM


class TestSystemModelHelpers:
    def test_conservative_model_is_complete(self):
        model = conservative_driving_model(["green_traffic_light", "car_from_left"])
        assert model.num_states == 4
        assert model.num_transitions == 16

    def test_pruned_model_removes_isolated_states(self):
        model = build_model_from_system(
            ["green_traffic_light", "car_from_left"],
            lambda a, b: a != b and len(a) <= 1 and len(b) <= 1,
            conservative=False,
            vocabulary=DRIVING_VOCABULARY,
        )
        # The {green, car} state has no allowed transition, so Algorithm 1 prunes it.
        assert model.num_states == 3


class TestEvaluationContainers:
    def test_task_and_model_evaluation_aggregation(self):
        evaluation = ModelEvaluation(
            per_task=[
                TaskEvaluation(task="a", split="train", num_specifications=15, satisfied_counts=[15, 13]),
                TaskEvaluation(task="b", split="validation", num_specifications=15, satisfied_counts=[9]),
            ]
        )
        assert evaluation.mean_satisfied("train") == pytest.approx(14.0)
        assert evaluation.mean_satisfied("validation") == pytest.approx(9.0)
        assert 0.0 < evaluation.satisfaction_ratio() < 1.0
        assert ModelEvaluation().satisfaction_ratio() == 0.0


class TestPipelinePieces:
    @pytest.fixture(scope="class")
    def pipeline(self):
        with DPOAFPipeline(quick_pipeline_config(seed=0), specifications=core_specifications()) as pipeline:
            yield pipeline

    def test_configs_scale(self):
        quick = quick_pipeline_config()
        paper = paper_scale_config()
        assert quick.pretrain.num_steps < paper.pretrain.num_steps
        assert quick.dpo.num_epochs < paper.dpo.num_epochs

    def test_score_response_orders_categories(self, pipeline):
        task = task_by_name("turn_right_traffic_light")
        good = pipeline.score_response(task, response_templates(task.name, "compliant")[0])
        bad = pipeline.score_response(task, response_templates(task.name, "flawed")[0])
        vague = pipeline.score_response(task, "1. Just drive nicely.")
        assert good > bad >= vague

    def test_metrics_registry_holds_the_serving_provider(self, pipeline):
        snapshot = pipeline.metrics_registry.snapshot()
        assert set(snapshot) == {"gauges", "serving"}
        assert snapshot["serving"].keys() == pipeline.serving.metrics.snapshot().keys()

    def test_task_model_is_cached(self, pipeline):
        task = task_by_name("turn_right_traffic_light")
        assert pipeline.task_model(task) is pipeline.task_model(task)

    def test_augment_with_templates_adds_pairs(self, pipeline):
        pairs = pipeline.augment_with_templates([], per_task=2)
        assert len(pairs) >= 2 * len(training_tasks())
        assert all(pair.chosen_score >= pair.rejected_score for pair in pairs)

    def test_finetune_requires_pairs(self, pipeline):
        tokenizer = Tokenizer.fit(["x"])
        model = TransformerLM(ModelConfig(vocab_size=tokenizer.vocab_size, max_seq_len=8, dim=8, num_heads=2, num_layers=1, hidden_dim=16))
        with pytest.raises(TrainingError):
            pipeline.finetune(model, tokenizer, [])

    def test_evaluate_model_honors_explicit_zero_samples(self, pipeline):
        """num_samples=0 means sample nothing — it must not silently fall back
        to the config default (falsy-`or` bug)."""
        tokenizer = Tokenizer.fit(["x"])
        model = TransformerLM(ModelConfig(vocab_size=tokenizer.vocab_size, max_seq_len=8, dim=8, num_heads=2, num_layers=1, hidden_dim=16))
        evaluation = pipeline.evaluate_model(model, tokenizer, num_samples=0)
        assert evaluation.per_task
        assert all(t.satisfied_counts == [] for t in evaluation.per_task)
        assert evaluation.satisfaction_ratio() == 0.0


def _pipeline_fingerprint(result):
    """Everything downstream of sampling, reduced to comparable values."""
    return {
        "pairs": [
            (p.prompt, p.chosen, p.rejected, p.chosen_score, p.rejected_score)
            for p in result.preference_pairs
        ],
        "before": [tuple(t.satisfied_counts) for t in result.before_evaluation.per_task],
        "after": [tuple(t.satisfied_counts) for t in result.after_evaluation.per_task],
        "losses": tuple(result.dpo_result.history.losses),
    }


class TestBackendParity:
    """The serving backend must be invisible in the outputs: pairs, losses and
    evaluations are bitwise-identical on the serial and process backends."""

    TASKS = 2  # keep the process-backend run affordable

    def _run(self, backend: str):
        import dataclasses

        from repro.serving import ServingConfig

        config = dataclasses.replace(
            quick_pipeline_config(seed=0),
            serving=ServingConfig(backend=backend, max_workers=2),
        )
        with DPOAFPipeline(
            config,
            specifications=core_specifications(),
            tasks=training_tasks()[: self.TASKS],
            validation=(),
        ) as pipeline:
            return _pipeline_fingerprint(pipeline.run())

    @pytest.mark.parametrize("backend", ["process"])
    def test_pipeline_agrees_across_backends(self, backend):
        assert self._run(backend) == self._run("serial")
