"""Tests for configuration, prompting, persistence, and pipeline components."""

import numpy as np
import pytest

from repro.core import (
    DPOAFPipeline,
    conservative_driving_model,
    llama2_chat_prompt,
    load_model,
    paper_scale_config,
    pruned_driving_model,
    quick_pipeline_config,
    save_model,
    steps_prompt,
    alignment_prompt,
)
from repro.core.pipeline import ModelEvaluation, TaskEvaluation
from repro.driving import core_specifications, task_by_name, training_tasks
from repro.driving.responses import response_templates
from repro.errors import TrainingError
from repro.lm import ModelConfig, Tokenizer, TransformerLM


class TestPrompting:
    def test_steps_prompt_matches_paper_format(self):
        assert steps_prompt("turn right at traffic light").startswith('Steps for "turn right at traffic light"')

    def test_alignment_prompt_lists_vocabulary(self):
        prompt = alignment_prompt(["step one"], ["green_traffic_light"], ["stop"])
        assert "green_traffic_light" in prompt and "stop" in prompt and "1. step one" in prompt

    def test_llama2_wrapper_tokens(self):
        prompt = llama2_chat_prompt("Steps for \"turn right\":")
        assert prompt.startswith("<s>[INST]") and "<<SYS>>" in prompt and prompt.endswith("[/INST]")


class TestSystemModelHelpers:
    def test_conservative_model_is_complete(self):
        model = conservative_driving_model(["green_traffic_light", "car_from_left"])
        assert model.num_states == 4
        assert model.num_transitions == 16

    def test_pruned_model_removes_isolated_states(self):
        model = pruned_driving_model(
            ["green_traffic_light", "car_from_left"],
            lambda a, b: a != b and len(a) <= 1 and len(b) <= 1,
        )
        # The {green, car} state has no allowed transition, so Algorithm 1 prunes it.
        assert model.num_states == 3


class TestCheckpoints:
    def test_save_and_load_roundtrip(self, tmp_path):
        tokenizer = Tokenizer.fit(["turn right at the light"])
        model = TransformerLM(ModelConfig(vocab_size=tokenizer.vocab_size, max_seq_len=16, dim=8, num_heads=2, num_layers=1, hidden_dim=16), seed=0)
        save_model(model, tokenizer, tmp_path / "ckpt")
        loaded_model, loaded_tokenizer = load_model(tmp_path / "ckpt")
        tokens = np.array([tokenizer.encode("turn right", add_bos=True)])
        mask = np.ones((1, tokens.shape[1] - 1), dtype=np.float32)
        assert np.allclose(model.sequence_log_probs(tokens, mask), loaded_model.sequence_log_probs(tokens, mask), atol=1e-5)
        assert loaded_tokenizer.vocab_size == tokenizer.vocab_size

    def test_missing_checkpoint_raises(self, tmp_path):
        with pytest.raises(TrainingError):
            load_model(tmp_path / "nowhere")

    def test_failed_save_keeps_previous_weights_loadable(self, tmp_path, monkeypatch):
        """A save that dies while serialising the weights must leave the
        previous checkpoint's weights.npz complete and unchanged."""
        tokenizer = Tokenizer.fit(["turn right at the light"])
        config = ModelConfig(vocab_size=tokenizer.vocab_size, max_seq_len=16, dim=8, num_heads=2, num_layers=1, hidden_dim=16)
        first, second = TransformerLM(config, seed=0), TransformerLM(config, seed=1)
        save_model(first, tokenizer, tmp_path / "ckpt")

        class Unserialisable:
            def __reduce__(self):
                raise OSError("disk full")

        # The poisoned array comes last, so every real weight is serialised
        # before the failure — a save in place would have truncated the file.
        state = dict(second.state_dict(), zz_crash=np.array(Unserialisable(), dtype=object))
        monkeypatch.setattr(second, "state_dict", lambda: state)
        with pytest.raises(OSError, match="disk full"):
            save_model(second, tokenizer, tmp_path / "ckpt")

        loaded, _ = load_model(tmp_path / "ckpt")
        expected = first.state_dict()
        assert loaded.state_dict().keys() == expected.keys()
        for key, value in expected.items():
            assert np.array_equal(loaded.state_dict()[key], value), key
        assert list((tmp_path / "ckpt").glob("*.tmp.*")) == []

    def test_failed_tokenizer_serialisation_writes_nothing(self, tmp_path, monkeypatch):
        """Everything is serialised before the first write: a tokenizer that
        cannot be serialised must not leave new weights beside old JSON."""
        tokenizer = Tokenizer.fit(["turn right at the light"])
        config = ModelConfig(vocab_size=tokenizer.vocab_size, max_seq_len=16, dim=8, num_heads=2, num_layers=1, hidden_dim=16)
        save_model(TransformerLM(config, seed=0), tokenizer, tmp_path / "ckpt")
        before = {path.name: path.read_bytes() for path in (tmp_path / "ckpt").iterdir()}

        def unserialisable():
            raise ValueError("tokenizer state is corrupt")

        monkeypatch.setattr(tokenizer, "to_dict", unserialisable)
        with pytest.raises(ValueError, match="corrupt"):
            save_model(TransformerLM(config, seed=1), tokenizer, tmp_path / "ckpt")
        after = {path.name: path.read_bytes() for path in (tmp_path / "ckpt").iterdir()}
        assert after == before

    def test_save_over_a_checkpoint_loads_the_new_weights(self, tmp_path):
        tokenizer = Tokenizer.fit(["turn right at the light"])
        config = ModelConfig(vocab_size=tokenizer.vocab_size, max_seq_len=16, dim=8, num_heads=2, num_layers=1, hidden_dim=16)
        save_model(TransformerLM(config, seed=0), tokenizer, tmp_path / "ckpt")
        newer = TransformerLM(config, seed=1)
        save_model(newer, tokenizer, tmp_path / "ckpt")
        loaded, _ = load_model(tmp_path / "ckpt")
        for key, value in newer.state_dict().items():
            assert np.array_equal(loaded.state_dict()[key], value), key

    def test_lora_checkpoint_round_trips_with_its_adapters(self, tmp_path):
        from repro.lm.lora import LoRAConfig, apply_lora

        tokenizer = Tokenizer.fit(["turn right at the light"])
        model = TransformerLM(ModelConfig(vocab_size=tokenizer.vocab_size, max_seq_len=16, dim=8, num_heads=2, num_layers=1, hidden_dim=16), seed=0)
        apply_lora(model, LoRAConfig(rank=2, seed=0))
        state = model.state_dict()
        # Non-zero adapters, so a load that dropped them would change outputs.
        state = {key: value + 0.01 if ".lora_b" in key else value for key, value in state.items()}
        model.load_state_dict(state)
        save_model(model, tokenizer, tmp_path / "ckpt")
        loaded, _ = load_model(tmp_path / "ckpt")
        assert loaded.state_dict().keys() == state.keys()
        tokens = np.array([tokenizer.encode("turn right", add_bos=True)])
        mask = np.ones((1, tokens.shape[1] - 1), dtype=np.float32)
        assert np.array_equal(model.sequence_log_probs(tokens, mask), loaded.sequence_log_probs(tokens, mask))


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
