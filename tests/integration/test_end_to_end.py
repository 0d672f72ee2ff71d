"""End-to-end integration tests of the DPO-AF reproduction.

These tests run the whole pipeline at a reduced scale: they are the slowest
tests in the suite (tens of seconds) but verify the cross-module contracts the
benchmarks rely on.
"""

import numpy as np
import pytest

from repro.core import DPOAFPipeline, PipelineConfig
from repro.core.config import FeedbackConfig, SamplingConfig, paper_scale_config
from repro.dpo import DPOConfig
from repro.driving import core_specifications, response_templates, task_by_name, training_tasks
from repro.feedback import FormalVerifier, rank_to_pairs
from repro.glm2fsa import build_controller_from_text
from repro.lm import PretrainConfig, build_corpus, format_prompt, pretrain
from repro.lm.sampling import sample_responses
from repro.sim import SimulationGrounding
from repro.feedback import EmpiricalEvaluator


@pytest.fixture(scope="module")
def small_tasks():
    return [task_by_name("turn_right_traffic_light"), task_by_name("go_straight_traffic_light")]


@pytest.fixture(scope="module")
def pretrained():
    corpus = build_corpus(samples_per_task=12, seed=0)
    return pretrain(corpus, PretrainConfig(num_steps=80, batch_size=8, seed=0))


class TestCorpusAndPretraining:
    def test_corpus_mixture_contains_all_categories(self):
        corpus = build_corpus(samples_per_task=20, seed=0)
        counts = corpus.category_counts()
        assert set(counts) == {"compliant", "flawed", "vague"}

    def test_pretraining_reduces_loss(self, pretrained):
        assert pretrained.losses[-1] < pretrained.losses[0] * 0.5

    def test_sampled_text_is_step_like(self, pretrained):
        prompt = format_prompt(task_by_name("turn_right_traffic_light"))
        responses = sample_responses(pretrained.model, pretrained.tokenizer, prompt, 3, seed=0)
        assert any("1." in response for response in responses)


class TestVerificationFeedbackLoop:
    def test_template_scores_drive_preferences(self, small_tasks):
        verifier = FormalVerifier(core_specifications())
        pairs = []
        for task in small_tasks:
            responses = [
                response_templates(task.name, "compliant")[0],
                response_templates(task.name, "flawed")[0],
            ]
            scores = [verifier.verify_response(task.model(), r, task=task.name).num_satisfied for r in responses]
            pairs.extend(rank_to_pairs(format_prompt(task), responses, scores, task=task.name))
        assert pairs
        assert all(pair.chosen_score > pair.rejected_score for pair in pairs)

    def test_formal_and_empirical_feedback_agree_on_ordering(self, small_tasks):
        """Section 5.2's consistency claim at unit scale: both feedback channels
        prefer the compliant controller."""
        task = small_tasks[0]
        good = build_controller_from_text(response_templates(task.name, "compliant")[0], task=task.name)
        bad = build_controller_from_text("1. Turn right at the corner.", task=task.name)

        formal = FormalVerifier(core_specifications())
        formal_good = formal.verify_controller(task.model(), good).num_satisfied
        formal_bad = formal.verify_controller(task.model(), bad).num_satisfied

        empirical = EmpiricalEvaluator(core_specifications(), SimulationGrounding(task.scenario), threshold=0.95)
        empirical_good = empirical.evaluate_controller(good, num_traces=15, seed=0).mean_satisfaction
        empirical_bad = empirical.evaluate_controller(bad, num_traces=15, seed=0).mean_satisfaction

        assert formal_good > formal_bad
        assert empirical_good > empirical_bad


class TestPipelineEndToEnd:
    @pytest.fixture(scope="class")
    def pipeline_result(self):
        config = PipelineConfig(
            pretrain=PretrainConfig(num_steps=150, batch_size=12, seed=1),
            dpo=DPOConfig(num_epochs=10, batch_size=8, learning_rate=3e-3, beta=1.0, lora_rank=4, checkpoint_every=5, seed=1),
            sampling=SamplingConfig(responses_per_prompt=3, max_new_tokens=64),
            feedback=FeedbackConfig(),
            corpus_samples_per_task=16,
            seed=1,
        )
        with DPOAFPipeline(config, specifications=core_specifications(), tasks=training_tasks()[:4], validation=()) as pipeline:
            return pipeline.run(evaluate_checkpoints=True)

    def test_dpo_metrics_move_in_the_right_direction(self, pipeline_result):
        history = pipeline_result.dpo_result.history
        assert history.losses[-1] < history.losses[0]
        assert np.mean(history.accuracies[-5:]) >= np.mean(history.accuracies[:5])
        assert history.marginal_preferences[-1] > 0

    def test_fine_tuning_improves_specification_satisfaction(self, pipeline_result):
        before = pipeline_result.before_evaluation.satisfaction_ratio()
        after = pipeline_result.after_evaluation.satisfaction_ratio()
        assert after > before
        assert pipeline_result.improvement > 0

    def test_checkpoint_evaluations_cover_epochs(self, pipeline_result):
        epochs = sorted(pipeline_result.checkpoint_evaluations)
        assert epochs[0] == 0
        assert epochs[-1] == pipeline_result.dpo_result.checkpoint_epochs()[-1]

    def test_preference_pairs_prefer_higher_scores(self, pipeline_result):
        assert pipeline_result.preference_pairs
        assert all(pair.chosen_score >= pair.rejected_score for pair in pipeline_result.preference_pairs)


@pytest.mark.slow
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_paper_scale_fine_tuning_improves_satisfaction_on_every_seed(seed):
    """The paper's headline claim, not on one pinned seed: at paper scale,
    DPO raises specification satisfaction for each of seeds 0-2."""
    with DPOAFPipeline(paper_scale_config(seed)) as pipeline:
        result = pipeline.run()
    assert result.improvement > 0
