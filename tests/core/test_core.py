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

    def test_pipeline_serves_with_the_default_serving_config(self, pipeline):
        from repro.serving import ServingConfig

        assert pipeline.serving.config == ServingConfig()

    def test_metrics_registry_holds_the_serving_provider(self, pipeline):
        snapshot = pipeline.metrics_registry.snapshot()
        assert set(snapshot) == {"serving", "process"}
        assert snapshot["serving"].keys() == pipeline.serving.metrics.snapshot().keys()
        assert set(snapshot["process"]) == {"self", "children"}

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
