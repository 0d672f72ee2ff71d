"""Tests for the DPO dataset, loss, metrics, and trainer."""

import json

import numpy as np
import pytest

from repro.dpo import (
    DPOConfig,
    DPODataset,
    DPOTrainer,
    MultiSeedCurves,
    ReferenceMemo,
    TrainingHistory,
    dpo_step,
    encoded_pair_record,
    read_encoded_pairs,
    run_dpo,
    sigmoid,
    stack_pair_batch,
)
from repro.dpo.dataset import EncodedPair
from repro.dpo.loss import DPOBatchMetrics
from repro.errors import TrainingError
from repro.feedback import PreferencePair
from repro.lm import ModelConfig, Tokenizer, TransformerLM
from repro.lm.lora import LoRAConfig, apply_lora
from repro.utils.rng import seeded_rng


@pytest.fixture(scope="module")
def toy_tokenizer() -> Tokenizer:
    texts = [
        'Steps for "turn right" :',
        "1. observe the light.\n2. if green, turn right.",
        "1. turn right.",
        "1. drive carefully.",
    ]
    return Tokenizer.fit(texts)


@pytest.fixture(scope="module")
def toy_pairs() -> list:
    prompt = 'Steps for "turn right" :'
    good = "1. observe the light.\n2. if green, turn right."
    bad = "1. turn right."
    vague = "1. drive carefully."
    return [
        PreferencePair(prompt=prompt, chosen=good, rejected=bad, chosen_score=14, rejected_score=10, task="t"),
        PreferencePair(prompt=prompt, chosen=good, rejected=vague, chosen_score=14, rejected_score=0, task="t"),
        PreferencePair(prompt=prompt, chosen=bad, rejected=vague, chosen_score=10, rejected_score=0, task="t"),
    ]


@pytest.fixture()
def toy_model(toy_tokenizer) -> TransformerLM:
    config = ModelConfig(vocab_size=toy_tokenizer.vocab_size, max_seq_len=48, dim=16, num_heads=2, num_layers=1, hidden_dim=32)
    return TransformerLM(config, seed=0)


class TestSigmoid:
    def test_symmetry(self):
        assert sigmoid(np.array([0.0]))[0] == pytest.approx(0.5)
        assert sigmoid(np.array([5.0]))[0] + sigmoid(np.array([-5.0]))[0] == pytest.approx(1.0)

    def test_extremes_are_stable(self):
        assert np.isfinite(sigmoid(np.array([1000.0, -1000.0]))).all()


class TestDataset:
    def test_encoding_masks_only_response(self, toy_pairs, toy_tokenizer):
        dataset = DPODataset.from_preference_pairs(toy_pairs, toy_tokenizer, max_seq_len=48)
        batch = next(dataset.batches(3, shuffle=False))
        prompt_len = len(toy_tokenizer.encode(toy_pairs[0].prompt, add_bos=True))
        assert batch["chosen_mask"][:, : prompt_len - 1].sum() == 0
        assert batch["chosen_mask"].sum() > 0

    def test_rejects_non_pairs(self, toy_tokenizer):
        with pytest.raises(TrainingError):
            DPODataset.from_preference_pairs(["not a pair"], toy_tokenizer)

    def test_empty_dataset_raises_on_batching(self, toy_tokenizer):
        dataset = DPODataset(pairs=[], tokenizer=toy_tokenizer)
        with pytest.raises(TrainingError):
            next(dataset.batches(2, shuffle=False))


class TestEncodedPairFile:
    """The JSONL pairs file ``repro-serve --pairs-output`` writes and
    ``read_encoded_pairs`` loads."""

    def test_records_round_trip(self, toy_pairs, toy_tokenizer, tmp_path):
        dataset = DPODataset.from_preference_pairs(toy_pairs, toy_tokenizer, max_seq_len=48)
        path = tmp_path / "pairs.jsonl"
        path.write_text("".join(json.dumps(encoded_pair_record(pair)) + "\n" for pair in dataset.pairs))
        assert read_encoded_pairs(path) == dataset.pairs

    GOOD_RECORD = {
        "task": "t",
        "chosen_ids": [1, 2, 3],
        "rejected_ids": [1, 4],
        "chosen_response_start": 1,
        "rejected_response_start": 1,
    }

    @pytest.mark.parametrize(
        "line",
        [
            pytest.param('{"chosen_ids": [1]}', id="only-chosen-ids"),
            pytest.param("{not json", id="not-json"),
            pytest.param(json.dumps({k: v for k, v in GOOD_RECORD.items() if k != "rejected_ids"}), id="missing-key"),
            pytest.param(json.dumps({**GOOD_RECORD, "chosen_ids": 5}), id="ids-not-a-list"),
            pytest.param(json.dumps({**GOOD_RECORD, "chosen_response_start": "x"}), id="start-not-an-int"),
            pytest.param("[" * 100_000, id="nested-past-the-parser-limit"),
            pytest.param(json.dumps({**GOOD_RECORD, "chosen_response_start": float("inf")}), id="start-infinite"),
            pytest.param(json.dumps({**GOOD_RECORD, "chosen_response_start": -3}), id="start-negative"),
            pytest.param(json.dumps({**GOOD_RECORD, "chosen_response_start": 3}), id="start-past-the-last-target"),
            pytest.param(json.dumps({**GOOD_RECORD, "rejected_response_start": 2}), id="rejected-start-past-its-ids"),
            pytest.param(json.dumps({**GOOD_RECORD, "chosen_response_start": 2.9}), id="start-a-float"),
            pytest.param(json.dumps({**GOOD_RECORD, "chosen_response_start": True}), id="start-a-bool"),
            pytest.param(json.dumps({**GOOD_RECORD, "chosen_ids": [1, 5.7, 3]}), id="id-a-float"),
            pytest.param(json.dumps({**GOOD_RECORD, "chosen_ids": [1, True, 3]}), id="id-true"),
            pytest.param(json.dumps({**GOOD_RECORD, "rejected_ids": [1, False]}), id="id-false"),
            pytest.param(json.dumps({**GOOD_RECORD, "chosen_ids": [1, -1, 3]}), id="id-negative"),
            pytest.param(json.dumps({**GOOD_RECORD, "chosen_ids": "abc"}), id="ids-a-string"),
            pytest.param(json.dumps({**GOOD_RECORD, "rejected_ids": []}), id="ids-empty"),
            pytest.param(json.dumps({**GOOD_RECORD, "rejected_ids": [1], "rejected_response_start": 0}), id="ids-one-token"),
            pytest.param(json.dumps([GOOD_RECORD]), id="record-not-an-object"),
        ],
    )
    def test_read_encoded_pairs_rejects_corrupt_lines(self, tmp_path, line):
        """A malformed record fails with a ValueError naming the file and line."""
        path = tmp_path / "pairs.jsonl"
        path.write_text(json.dumps(self.GOOD_RECORD) + "\n" + line + "\n")
        with pytest.raises(ValueError, match=r"pairs\.jsonl:2: invalid encoded-pair record"):
            read_encoded_pairs(path)

    def test_training_rejects_an_id_outside_the_vocabulary(self, toy_model, toy_tokenizer, tmp_path):
        """A well-formed file can still hold ids the policy has no embedding
        for: training refuses it up front, naming the pair."""
        path = tmp_path / "pairs.jsonl"
        records = [self.GOOD_RECORD, {**self.GOOD_RECORD, "task": "far", "rejected_ids": [1, 500]}]
        path.write_text("".join(json.dumps(record) + "\n" for record in records))
        dataset = DPODataset(pairs=read_encoded_pairs(path), tokenizer=toy_tokenizer, max_seq_len=48)
        trainer = DPOTrainer(toy_model, toy_tokenizer, DPOConfig(num_epochs=1, lora_rank=2))
        with pytest.raises(TrainingError, match=r"preference pair 1 \(task 'far'\) holds token id 500"):
            trainer.train(dataset)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        path.write_text("\n" + json.dumps(self.GOOD_RECORD) + "\n   \n" + json.dumps(self.GOOD_RECORD) + "\n\n")
        assert len(read_encoded_pairs(path)) == 2

    def test_missing_task_reads_as_empty(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        path.write_text(json.dumps({k: v for k, v in self.GOOD_RECORD.items() if k != "task"}) + "\n")
        (pair,) = read_encoded_pairs(path)
        assert pair.task == "" and pair.chosen_ids == [1, 2, 3]

    def test_dataset_rebuilt_from_the_file_trains_identically(self, toy_pairs, toy_tokenizer, tmp_path):
        """A later process can train from the file alone: same batches, same
        losses and weights as training on the freshly encoded dataset."""
        config = ModelConfig(vocab_size=toy_tokenizer.vocab_size, max_seq_len=48, dim=16, num_heads=2, num_layers=1, hidden_dim=32)
        dpo_config = DPOConfig(num_epochs=2, batch_size=2, checkpoint_every=1, lora_rank=2, seed=0)
        encoded = DPODataset.from_preference_pairs(toy_pairs, toy_tokenizer, max_seq_len=48)
        path = tmp_path / "pairs.jsonl"
        path.write_text("".join(json.dumps(encoded_pair_record(pair)) + "\n" for pair in encoded.pairs))
        reloaded = DPODataset(pairs=read_encoded_pairs(path), tokenizer=toy_tokenizer, max_seq_len=48)

        results = [
            DPOTrainer(TransformerLM(config, seed=0), toy_tokenizer, dpo_config).train(dataset)
            for dataset in (encoded, reloaded)
        ]
        assert results[1].history.losses == results[0].history.losses
        for key, value in results[0].policy.state_dict().items():
            assert np.array_equal(results[1].policy.state_dict()[key], value), key


class TestDPOStep:
    def test_initial_loss_is_log_two(self, toy_model, toy_pairs, toy_tokenizer):
        """Before any update the policy equals the reference, so L = -log σ(0) = log 2."""
        dataset = DPODataset.from_preference_pairs(toy_pairs, toy_tokenizer, max_seq_len=48)
        batch = next(dataset.batches(3, shuffle=False))
        metrics = dpo_step(toy_model, toy_model.clone(), batch, beta=0.5, backward=False)
        assert metrics.loss == pytest.approx(np.log(2.0), rel=1e-3)
        assert metrics.marginal_preference == pytest.approx(0.0, abs=1e-4)

    def test_gradients_reduce_loss(self, toy_model, toy_pairs, toy_tokenizer):
        from repro.lm import Adam

        reference = toy_model.clone()
        dataset = DPODataset.from_preference_pairs(toy_pairs, toy_tokenizer, max_seq_len=48)
        optimizer = Adam(toy_model.parameters(), learning_rate=5e-3)
        batch = next(dataset.batches(3, shuffle=False))
        first = dpo_step(toy_model, reference, batch, beta=0.5, backward=False).loss
        for _ in range(15):
            optimizer.zero_grad()
            dpo_step(toy_model, reference, batch, beta=0.5)
            optimizer.step()
        last = dpo_step(toy_model, reference, batch, beta=0.5, backward=False).loss
        assert last < first
        final = dpo_step(toy_model, reference, batch, beta=0.5, backward=False)
        assert final.marginal_preference > 0


def two_pass_dpo_step(policy, reference, batch, *, beta, backward) -> DPOBatchMetrics:
    """The DPO step with chosen and rejected halves run as separate passes.

    The oracle for :func:`dpo_step`, which stacks both halves into one batch
    per model: same loss, metrics and gradients, up to summation order.
    """
    chosen_tokens, chosen_mask = batch["chosen_tokens"], batch["chosen_mask"]
    rejected_tokens, rejected_mask = batch["rejected_tokens"], batch["rejected_mask"]
    ref_chosen = reference.sequence_log_probs(chosen_tokens, chosen_mask)
    ref_rejected = reference.sequence_log_probs(rejected_tokens, rejected_mask)
    policy_rejected = policy.sequence_log_probs(rejected_tokens, rejected_mask)
    if backward:
        policy_chosen, chosen_backward = policy.sequence_log_probs_with_grad(chosen_tokens, chosen_mask)
    else:
        policy_chosen = policy.sequence_log_probs(chosen_tokens, chosen_mask)
    margin = (policy_chosen - ref_chosen) - (policy_rejected - ref_rejected)
    h = beta * margin
    losses = -np.log(np.clip(sigmoid(h), 1e-12, None))
    coefficient = sigmoid(-h) * beta / h.shape[0]
    if backward:
        chosen_backward(-coefficient)
        _, rejected_backward = policy.sequence_log_probs_with_grad(rejected_tokens, rejected_mask)
        rejected_backward(coefficient)
    return DPOBatchMetrics(
        loss=float(np.mean(losses)),
        accuracy=float(np.mean(policy_chosen > policy_rejected)),
        marginal_preference=float(np.mean(margin)),
        chosen_log_prob=float(np.mean(policy_chosen)),
        rejected_log_prob=float(np.mean(policy_rejected)),
    )


class TestFusedDPOStep:
    """The fused (stacked chosen+rejected) step is equivalent to the
    two-passes-per-model oracle — metrics and gradients alike."""

    @staticmethod
    def _batch(toy_pairs, toy_tokenizer):
        dataset = DPODataset.from_preference_pairs(toy_pairs, toy_tokenizer, max_seq_len=48)
        return next(dataset.batches(3, shuffle=False))

    def test_stack_pair_batch_shapes_and_padding(self, toy_pairs, toy_tokenizer):
        batch = self._batch(toy_pairs, toy_tokenizer)
        tokens, mask = stack_pair_batch(batch)
        width = max(batch["chosen_tokens"].shape[1], batch["rejected_tokens"].shape[1])
        assert tokens.shape == (6, width) and mask.shape == (6, width - 1)
        rows = batch["chosen_tokens"].shape[0]
        narrow = batch["rejected_tokens"].shape[1]
        assert np.array_equal(tokens[rows:, :narrow], batch["rejected_tokens"])
        assert not tokens[rows:, narrow:].any()  # pad id 0
        assert not mask[rows:, narrow - 1:].any()  # padded targets never count

    def test_fused_metrics_match_unfused(self, toy_model, toy_pairs, toy_tokenizer):
        batch = self._batch(toy_pairs, toy_tokenizer)
        reference = toy_model.clone()
        fused = dpo_step(toy_model, reference, batch, beta=0.7, backward=False)
        unfused = two_pass_dpo_step(toy_model, reference, batch, beta=0.7, backward=False)
        for key, value in fused.as_dict().items():
            assert value == pytest.approx(unfused.as_dict()[key], abs=1e-5), key

    def test_fused_gradients_match_unfused(self, toy_pairs, toy_tokenizer):
        batch = self._batch(toy_pairs, toy_tokenizer)
        config = ModelConfig(vocab_size=toy_tokenizer.vocab_size, max_seq_len=48, dim=16, num_heads=2, num_layers=1, hidden_dim=32)
        models = [TransformerLM(config, seed=0) for _ in range(2)]
        for model, step in zip(models, (dpo_step, two_pass_dpo_step)):
            model.zero_grad()
            step(model, model.clone(), batch, beta=0.5, backward=True)
        for a, b in zip(models[0].parameters(), models[1].parameters()):
            scale = max(float(np.max(np.abs(b.grad))), 1e-3)
            assert np.allclose(a.grad, b.grad, atol=scale * 1e-4), a.name

    def test_fused_gradients_match_unfused_on_lora_adapters(self, toy_pairs, toy_tokenizer):
        """The trainer's setting: frozen base weights, trainable adapters."""
        from repro.lm.lora import LoRAConfig, apply_lora

        batch = self._batch(toy_pairs, toy_tokenizer)
        config = ModelConfig(vocab_size=toy_tokenizer.vocab_size, max_seq_len=48, dim=16, num_heads=2, num_layers=1, hidden_dim=32)
        models = []
        for step in (dpo_step, two_pass_dpo_step):
            model = TransformerLM(config, seed=0)
            reference = model.clone()
            apply_lora(model, LoRAConfig(rank=2, seed=0))
            # Move the adapters off zero so policy and reference differ.
            model.load_state_dict(
                {k: v + 0.05 if ".lora_b" in k else v for k, v in model.state_dict().items()}
            )
            model.zero_grad()
            metrics = step(model, reference, batch, beta=0.5, backward=True)
            models.append((model, metrics))
        (fused, fused_metrics), (unfused, unfused_metrics) = models
        for key, value in fused_metrics.as_dict().items():
            assert value == pytest.approx(unfused_metrics.as_dict()[key], abs=1e-5), key
        trainable = [(a, b) for a, b in zip(fused.parameters(), unfused.parameters()) if ".lora_" in a.name]
        assert trainable
        for a, b in trainable:
            scale = max(float(np.max(np.abs(b.grad))), 1e-3)
            assert np.allclose(a.grad, b.grad, atol=scale * 1e-4), a.name

    def test_fused_matches_unfused_when_only_one_half_is_padded(self, toy_tokenizer):
        """One pair whose rejected response is much shorter than its chosen
        one: every padded position of the stacked batch lies in one half."""
        pair = PreferencePair(
            prompt='Steps for "turn right" :',
            chosen="1. observe the light.\n2. if green, turn right.\n1. drive carefully.",
            rejected="1. turn right.",
            chosen_score=3,
            rejected_score=1,
        )
        batch = DPODataset.from_preference_pairs([pair], toy_tokenizer, max_seq_len=48).batch([0])
        assert batch["chosen_tokens"].shape[1] > batch["rejected_tokens"].shape[1] + 4
        config = ModelConfig(vocab_size=toy_tokenizer.vocab_size, max_seq_len=48, dim=16, num_heads=2, num_layers=1, hidden_dim=32)
        models = [TransformerLM(config, seed=3) for _ in range(2)]
        metrics = []
        for model, step in zip(models, (dpo_step, two_pass_dpo_step)):
            model.zero_grad()
            metrics.append(step(model, TransformerLM(config, seed=4), batch, beta=0.5, backward=True))
        for key, value in metrics[0].as_dict().items():
            assert value == pytest.approx(metrics[1].as_dict()[key], abs=1e-5), key
        for a, b in zip(models[0].parameters(), models[1].parameters()):
            scale = max(float(np.max(np.abs(b.grad))), 1e-3)
            assert np.allclose(a.grad, b.grad, atol=scale * 1e-4), a.name


class TestTrainer:
    def test_training_improves_metrics_and_checkpoints(self, toy_model, toy_pairs, toy_tokenizer):
        config = DPOConfig(num_epochs=6, batch_size=3, learning_rate=5e-3, checkpoint_every=2, lora_rank=2, seed=0)
        result = run_dpo(toy_model, toy_tokenizer, toy_pairs, config, max_seq_len=48)
        history = result.history
        assert history.num_steps == 6  # one batch per epoch
        assert history.losses[-1] < history.losses[0]
        assert history.marginal_preferences[-1] > 0
        assert set(result.checkpoint_epochs()) == {0, 2, 4, 6}
        assert result.lora_summary["trainable_parameters"] < result.lora_summary["total_parameters"]
        assert result.throughput["steps"] == 6
        assert result.throughput["pairs"] == 18  # 3 pairs × 6 epochs
        assert result.throughput["seconds"] > 0
        assert result.throughput["pairs_per_second"] == pytest.approx(
            result.throughput["pairs"] / result.throughput["seconds"]
        )

    def test_model_at_epoch_restores_weights(self, toy_model, toy_pairs, toy_tokenizer):
        config = DPOConfig(num_epochs=2, batch_size=3, checkpoint_every=1, lora_rank=2, seed=0)
        result = run_dpo(toy_model, toy_tokenizer, toy_pairs, config, max_seq_len=48)
        restored = result.model_at_epoch(0)
        reference_state = result.checkpoints[0]
        assert np.allclose(restored.state_dict()["head.lora_b"], reference_state["head.lora_b"])
        with pytest.raises(TrainingError):
            result.model_at_epoch(999)

    def test_empty_pairs_raise(self, toy_model, toy_tokenizer):
        trainer = DPOTrainer(toy_model, toy_tokenizer, DPOConfig(num_epochs=1))
        with pytest.raises(TrainingError):
            trainer.train(DPODataset(pairs=[], tokenizer=toy_tokenizer))

    def test_max_steps_caps_training(self, toy_model, toy_pairs, toy_tokenizer):
        """Training stops after step 4, in epoch 2, and checkpoints that
        epoch although it is not a ``checkpoint_every`` epoch."""
        config = DPOConfig(num_epochs=50, batch_size=1, max_steps=4, checkpoint_every=100, lora_rank=2, seed=0)
        result = run_dpo(toy_model, toy_tokenizer, toy_pairs, config, max_seq_len=48)
        assert result.history.num_steps == 4
        assert result.checkpoint_epochs() == [0, 2]
        final = result.policy.state_dict()
        for key, value in result.checkpoints[2].items():
            assert np.array_equal(final[key], value), key

    def test_every_epoch_is_a_seeded_shuffle_of_every_pair(self, toy_model, toy_pairs, toy_tokenizer):
        """The first epoch is shuffled like the rest: epoch ``e`` visits the
        pairs in the ``e``-th permutation drawn from the config seed."""
        from repro.utils.rng import seeded_rng

        class RecordingDataset(DPODataset):
            def batch(self, indices):
                visited.append([int(i) for i in indices])
                return super().batch(indices)

        visited: list = []
        pairs = toy_pairs * 3  # 9 pairs: batches of 4, 4 and 1 per epoch
        dataset = RecordingDataset.from_preference_pairs(pairs, toy_tokenizer, max_seq_len=48)
        config = DPOConfig(num_epochs=3, batch_size=4, checkpoint_every=1, lora_rank=2, seed=5)
        DPOTrainer(toy_model, toy_tokenizer, config).train(dataset)

        rng = seeded_rng(config.seed)
        expected = [rng.permutation(len(pairs)).tolist() for _ in range(config.num_epochs)]
        epochs = [sum(visited[3 * e: 3 * e + 3], []) for e in range(config.num_epochs)]
        assert [len(batch) for batch in visited] == [4, 4, 1] * config.num_epochs
        assert epochs == expected
        assert all(sorted(epoch) == list(range(len(pairs))) for epoch in epochs)


def stable_model(tokenizer: Tokenizer, seed: int = 0) -> TransformerLM:
    """A toy model in the row-stable kernel domain (``head_dim = 16``, see
    ``docs/lm.md``), where a row's log-probs do not depend on its batch."""
    config = ModelConfig(vocab_size=tokenizer.vocab_size, max_seq_len=48, dim=32, num_heads=2, num_layers=1, hidden_dim=32)
    return TransformerLM(config, seed=seed)


class TestReferenceMemo:
    """The trainer's memo of the frozen reference is bitwise the live model."""

    def test_trainer_matches_a_loop_over_the_live_reference(self, toy_pairs, toy_tokenizer):
        dataset = DPODataset.from_preference_pairs(toy_pairs * 3, toy_tokenizer, max_seq_len=48)
        config = DPOConfig(num_epochs=3, batch_size=4, learning_rate=5e-3, lora_rank=2, seed=2)
        result = DPOTrainer(stable_model(toy_tokenizer), toy_tokenizer, config).train(dataset)

        live = DPOTrainer(stable_model(toy_tokenizer), toy_tokenizer, config)
        rng = seeded_rng(config.seed)
        losses = []
        for _ in range(config.num_epochs):
            for batch in dataset.batches(config.batch_size, rng=rng, shuffle=True):
                live.optimizer.zero_grad()
                losses.append(dpo_step(live.policy, live.reference, batch, beta=config.beta).loss)
                live.optimizer.step()

        assert result.history.losses == losses
        trained = result.policy.state_dict()
        for key, value in live.policy.state_dict().items():
            assert np.array_equal(trained[key], value), key

    def test_memo_equals_the_model_for_any_batch(self, toy_pairs, toy_tokenizer):
        """Batches of different width and composition, including a row whose
        last masked target is the pad id (only a pairs file can hold one):
        its trailing pad is a token, not padding."""
        dataset = DPODataset.from_preference_pairs(toy_pairs, toy_tokenizer, max_seq_len=48)
        ends_in_pad = dataset.pairs[2].chosen_ids[:5] + [toy_tokenizer.pad_id]
        dataset.pairs.append(
            EncodedPair(
                chosen_ids=ends_in_pad,
                rejected_ids=ends_in_pad[:3],
                chosen_response_start=2,
                rejected_response_start=1,
            )
        )
        model = stable_model(toy_tokenizer, seed=1)
        memo = ReferenceMemo(model)
        for indices in ([3], [0, 3], [3, 1, 2], [2], [0, 1, 2, 3], [1, 0]):
            tokens, mask = stack_pair_batch(dataset.batch(indices))
            assert np.array_equal(memo.sequence_log_probs(tokens, mask), model.sequence_log_probs(tokens, mask)), indices

    def test_the_model_runs_once_per_distinct_sequence(self, toy_pairs, toy_tokenizer, monkeypatch):
        dataset = DPODataset.from_preference_pairs(toy_pairs, toy_tokenizer, max_seq_len=48)
        model = stable_model(toy_tokenizer)
        forwarded = []

        def counting(tokens):
            forwarded.append(len(tokens))
            return TransformerLM.token_log_probs(model, tokens)

        monkeypatch.setattr(model, "token_log_probs", counting)
        memo = ReferenceMemo(model)
        rng = seeded_rng(0)
        for epoch in range(3):
            for batch in dataset.batches(2, rng=rng, shuffle=True):
                memo.sequence_log_probs(*stack_pair_batch(batch))
            if epoch == 0:
                first_epoch = list(forwarded)
        distinct = {tuple(ids) for pair in dataset.pairs for ids in (pair.chosen_ids, pair.rejected_ids)}
        assert forwarded == first_epoch  # nothing runs after the first epoch
        assert sum(forwarded) == len(distinct) == 3
        assert max(forwarded) <= 4  # never more rows than one stacked batch


class TestFrozenParameters:
    """Under LoRA the base receives no gradient, and the adapters' gradients
    are exactly what they would be with the base trainable."""

    def test_frozen_gradients_are_zero_after_a_lora_step(self, toy_pairs, toy_tokenizer):
        dataset = DPODataset.from_preference_pairs(toy_pairs, toy_tokenizer, max_seq_len=48)
        model = stable_model(toy_tokenizer)
        # Leave the gradients of a pretraining step on every parameter.
        model.cross_entropy(stack_pair_batch(dataset.batch([0, 1]))[0], pad_id=toy_tokenizer.pad_id)
        assert model.head.weight.grad.any() and model.token_embedding.weight.grad.any()
        config = DPOConfig(num_epochs=1, batch_size=3, lora_rank=2, max_steps=1)
        DPOTrainer(model, toy_tokenizer, config).train(dataset)
        frozen = [p for p in model.parameters() if not p.trainable]
        assert frozen
        assert not [p.name for p in frozen if p.grad.any()]
        assert model.head.lora_b.grad.any()

    def test_lora_gradients_equal_a_fully_trainable_run(self, toy_pairs, toy_tokenizer):
        batch = DPODataset.from_preference_pairs(toy_pairs, toy_tokenizer, max_seq_len=48).batch([0, 1, 2])
        models = []
        for unfreeze in (False, True):
            model = stable_model(toy_tokenizer)
            reference = model.clone()
            apply_lora(model, LoRAConfig(rank=2, seed=0))
            if unfreeze:
                for param in model.parameters():
                    param.trainable = True
            # Move the adapters off zero so policy and reference differ.
            model.load_state_dict({k: v + 0.05 if ".lora_b" in k else v for k, v in model.state_dict().items()})
            dpo_step(model, reference, batch, beta=0.5)
            models.append(model)
        frozen, trainable = models
        assert all(p.trainable for p in trainable.parameters())
        adapters = [(a, b) for a, b in zip(frozen.parameters(), trainable.parameters()) if ".lora_" in a.name]
        assert adapters
        for a, b in adapters:
            assert np.array_equal(a.grad, b.grad), a.name


class TestMetricsContainers:
    def test_training_history_records(self):
        history = TrainingHistory()

        class _M:
            loss, accuracy, marginal_preference = 0.5, 0.75, 1.2

        history.record(_M(), grad_norm=0.3)
        history.mark_epoch()
        assert history.num_steps == 1 and history.num_epochs == 1
        assert history.final()["accuracy"] == 0.75

    def test_multi_seed_aggregation(self):
        curves = MultiSeedCurves()
        for offset in (0.0, 1.0):
            history = TrainingHistory()
            history.losses = [1.0 + offset, 0.5 + offset]
            history.accuracies = [0.5, 0.9]
            history.marginal_preferences = [0.0, 1.0]
            curves.add(history)
        assert curves.mean("losses")[0] == pytest.approx(1.5)
        assert curves.minimum("losses")[1] == pytest.approx(0.5)
        assert curves.maximum("losses")[1] == pytest.approx(1.5)
        rows = curves.summary_table("losses", every=1)
        assert rows[0][0] == 0 and len(rows) == 2
