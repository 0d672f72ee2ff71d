"""Ragged training steps: length groups against a full-width oracle.

``TransformerLM.cross_entropy`` and ``sequence_log_probs_with_grad`` run a
batch's rows as length groups, each at its own width.  The oracle here is the
full-width step written out inline — one forward over the whole batch, the
dlogits formula, one ``model.backward`` — so the planner is never compared
with itself.  Losses, log-probs and DPO metrics must be bitwise the oracle's;
gradients differ only in summation order.
"""

import itertools

import numpy as np
import pytest

from repro.dpo import DPODataset, dpo_step, stack_pair_batch
from repro.feedback import PreferencePair
from repro.lm import ModelConfig, Tokenizer, TransformerLM
from repro.lm.layers import DTYPE, softmax
from repro.lm.lora import LoRAConfig, apply_lora
from repro.lm.transformer import _GROUP_COST_CELLS, plan_length_groups


def full_width_cross_entropy(model, tokens, pad_id) -> float:
    """The pre-grouping ``cross_entropy``: every row at the batch's width."""
    targets = tokens[:, 1:]
    mask = (targets != pad_id).astype(DTYPE)
    logits, cache = model.forward(tokens[:, :-1])
    probs = softmax(logits, axis=-1)
    batch, time = targets.shape
    index = (np.arange(batch)[:, None], np.arange(time)[None, :], targets)
    losses = -np.log(np.clip(probs[index], 1e-12, None)) * mask
    denom = max(mask.sum(), 1.0)
    dlogits = probs.copy()
    dlogits[index] -= 1.0
    dlogits *= (mask / DTYPE(denom))[..., None]
    model.backward(cache, dlogits)
    return float(losses.sum() / denom)


def full_width_log_probs_with_grad(model, tokens, response_mask) -> tuple:
    """The pre-grouping ``sequence_log_probs_with_grad``."""
    tokens = np.asarray(tokens, dtype=np.int64)
    targets = tokens[:, 1:]
    logits, cache = model.forward(tokens[:, :-1])
    probs = softmax(logits, axis=-1)
    batch, time = targets.shape
    index = (np.arange(batch)[:, None], np.arange(time)[None, :], targets)
    log_probs = (np.log(np.clip(probs[index], 1e-12, None)) * response_mask).sum(axis=1)

    def backward_fn(coefficients):
        dlogits = -probs.copy()
        dlogits[index] += 1.0
        dlogits *= np.asarray(response_mask, dtype=DTYPE)[..., None]
        dlogits *= np.asarray(coefficients, dtype=DTYPE).reshape(batch, 1, 1)
        model.backward(cache, dlogits)

    return log_probs, backward_fn


def assert_gradients_close(model, oracle) -> None:
    """Summation order only: ``atol = max(max|g|, 1e-3) · 1e-4`` per tensor."""
    for ours, theirs in zip(model.parameters(), oracle.parameters()):
        scale = max(float(np.max(np.abs(theirs.grad))), 1e-3)
        assert np.allclose(ours.grad, theirs.grad, atol=scale * 1e-4), ours.name


def ragged_documents(rng, rows: int, width: int, vocab: int) -> np.ndarray:
    """Pretraining-style rows: BOS-led documents of random length, pad 0."""
    tokens = np.zeros((rows, width), dtype=np.int64)
    for row, length in enumerate(rng.integers(3, width + 1, size=rows)):
        tokens[row, :length] = rng.integers(1, vocab, size=length)
    return tokens


#: In the row-stable kernel domain (``head_dim = 16``, see ``docs/lm.md``).
STABLE = ModelConfig(vocab_size=40, max_seq_len=48, dim=32, num_heads=2, num_layers=2, hidden_dim=64)


def plan_cost(groups) -> int:
    return sum(len(rows) * width + _GROUP_COST_CELLS for rows, width in groups)


class TestPlanner:
    def test_every_row_with_a_target_lands_in_exactly_one_group(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            widths = rng.integers(0, 96, size=rng.integers(1, 25))
            groups = plan_length_groups(widths)
            placed = np.concatenate([rows for rows, _ in groups]) if groups else np.array([], dtype=int)
            assert sorted(placed.tolist()) == np.flatnonzero(widths > 0).tolist()
            for rows, width in groups:
                assert width == widths[rows].max()

    def test_groups_are_contiguous_runs_of_the_stable_sort(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            widths = rng.integers(0, 20, size=rng.integers(1, 25))  # many ties
            live = np.flatnonzero(widths > 0)
            order = live[np.argsort(widths[live], kind="stable")]
            groups = plan_length_groups(widths)
            assert np.concatenate([rows for rows, _ in groups] or [[]]).tolist() == order.tolist()
            assert [width for _, width in groups] == sorted(width for _, width in groups)

    def test_the_plan_is_deterministic_and_a_function_of_the_widths(self):
        widths = np.array([5, 40, 41, 0, 12, 90, 40, 33, 7, 88, 2, 61])
        first = plan_length_groups(widths)
        again = plan_length_groups(widths.tolist())
        assert [(rows.tolist(), width) for rows, width in first] == [(rows.tolist(), width) for rows, width in again]

    def test_the_plan_minimises_the_stated_cost(self):
        """Brute force over every split of the sorted rows into runs."""
        rng = np.random.default_rng(2)
        for _ in range(30):
            widths = np.sort(rng.integers(1, 96, size=rng.integers(1, 10)))
            best = min(
                sum(len(run) * max(run) + _GROUP_COST_CELLS for run in np.split(widths, cuts))
                for count in range(len(widths))
                for cuts in itertools.combinations(range(1, len(widths)), count)
            )
            assert plan_cost(plan_length_groups(widths)) == best

    def test_edge_cases(self):
        assert plan_length_groups([0, 0]) == []
        ((rows, width),) = plan_length_groups([7])
        assert rows.tolist() == [0] and width == 7
        # Equal widths never pay for a second group.
        assert len(plan_length_groups([30] * 24)) == 1


class TestRaggedCrossEntropy:
    def test_loss_is_bitwise_and_gradients_match_the_full_width_step(self):
        rng = np.random.default_rng(3)
        for trial in range(3):
            tokens = ragged_documents(rng, 12, STABLE.max_seq_len, STABLE.vocab_size)
            assert len(plan_length_groups((tokens[:, 1:] != 0).sum(axis=1))) > 1
            model, oracle = TransformerLM(STABLE, seed=trial), TransformerLM(STABLE, seed=trial)
            loss = model.cross_entropy(tokens, pad_id=0, backward=True)
            assert loss == full_width_cross_entropy(oracle, tokens, pad_id=0)
            assert_gradients_close(model, oracle)

    def test_forward_only_loss_matches_and_leaves_gradients_alone(self):
        tokens = ragged_documents(np.random.default_rng(4), 6, STABLE.max_seq_len, STABLE.vocab_size)
        model, oracle = TransformerLM(STABLE, seed=0), TransformerLM(STABLE, seed=0)
        assert model.cross_entropy(tokens, pad_id=0, backward=False) == full_width_cross_entropy(oracle, tokens, 0)
        assert not any(p.grad.any() for p in model.parameters())

    def test_rows_without_a_target_are_skipped(self):
        tokens = ragged_documents(np.random.default_rng(5), 4, 20, STABLE.vocab_size)
        tokens[1, 1:] = 0  # BOS only: nothing to predict
        model, oracle = TransformerLM(STABLE, seed=1), TransformerLM(STABLE, seed=1)
        assert model.cross_entropy(tokens, pad_id=0) == full_width_cross_entropy(oracle, tokens, 0)
        assert_gradients_close(model, oracle)
        assert model.cross_entropy(np.zeros((2, 9), dtype=np.int64), pad_id=0) == 0.0


@pytest.fixture(scope="module")
def tokenizer() -> Tokenizer:
    corpus = [
        'Steps for "turn right" :\n1. observe the traffic light.\n2. if green, turn right.',
        "1. check pedestrians.\n2. wait for the car.\n3. go straight.\n1. stop.",
    ]
    return Tokenizer.fit(corpus)


def ragged_batch(tokenizer) -> dict:
    """Compliant (long) chosen and vague (short) rejected responses."""
    long = "1. observe the traffic light.\n2. if green, check pedestrians.\n3. turn right.\n"
    pairs = [
        PreferencePair(
            prompt='Steps for "turn right" :',
            chosen=long * (1 + i % 3),
            rejected="1. turn right." + " go straight." * (i % 4),
            chosen_score=3,
            rejected_score=1,
        )
        for i in range(6)
    ]
    dataset = DPODataset.from_preference_pairs(pairs, tokenizer, max_seq_len=96)
    return dataset.batch(range(len(dataset)))


def lora_policy(tokenizer, seed: int = 0) -> tuple:
    """A LoRA policy whose adapters sit off zero, and its frozen reference."""
    config = ModelConfig(vocab_size=tokenizer.vocab_size, max_seq_len=96, dim=32, num_heads=2, num_layers=2, hidden_dim=64)
    model = TransformerLM(config, seed=seed)
    reference = model.clone()
    apply_lora(model, LoRAConfig(rank=2, seed=seed))
    model.load_state_dict({k: v + 0.05 if ".lora_b" in k else v for k, v in model.state_dict().items()})
    model.zero_grad()
    return model, reference


class TestRaggedDPO:
    def test_log_probs_are_bitwise_and_gradients_match_the_full_width_step(self, tokenizer):
        tokens, mask = stack_pair_batch(ragged_batch(tokenizer))
        assert len(plan_length_groups((mask != 0).sum(axis=1))) > 1
        (model, _), (oracle, _) = lora_policy(tokenizer), lora_policy(tokenizer)
        log_probs, backward = model.sequence_log_probs_with_grad(tokens, mask)
        expected, oracle_backward = full_width_log_probs_with_grad(oracle, tokens, mask)
        assert np.array_equal(log_probs, expected) and log_probs.dtype == expected.dtype
        coefficients = np.linspace(-1.0, 1.0, len(tokens))
        backward(coefficients)
        oracle_backward(coefficients)
        assert_gradients_close(model, oracle)

    def test_dpo_metrics_are_bitwise_the_full_width_step(self, tokenizer, monkeypatch):
        batch = ragged_batch(tokenizer)
        model, reference = lora_policy(tokenizer, seed=1)
        oracle, _ = lora_policy(tokenizer, seed=1)
        monkeypatch.setattr(
            oracle, "sequence_log_probs_with_grad", lambda t, m: full_width_log_probs_with_grad(oracle, t, m)
        )
        metrics = dpo_step(model, reference, batch, beta=0.5)
        assert metrics == dpo_step(oracle, reference, batch, beta=0.5)
        assert_gradients_close(model, oracle)


class TestBackwardClosureOwnsItsCaches:
    def test_a_forward_between_closure_and_backward_changes_nothing(self, tokenizer):
        """The closure for batch ``a`` must backprop ``a``'s activations even
        when the model ran another same-shape batch in between."""
        tokens, mask = stack_pair_batch(ragged_batch(tokenizer))
        other = tokens.copy()
        other[:, 1:][mask != 0] = (other[:, 1:][mask != 0] % (tokenizer.vocab_size - 5)) + 4
        coefficients = np.linspace(-1.0, 1.0, len(tokens))
        grads = []
        for interleave in (False, True):
            model, _ = lora_policy(tokenizer)
            _, backward = model.sequence_log_probs_with_grad(tokens, mask)
            if interleave:
                model.sequence_log_probs(other, mask)
            backward(coefficients)
            grads.append({p.name: p.grad.copy() for p in model.parameters()})
        uninterrupted, interleaved = grads
        for name, grad in uninterrupted.items():
            assert np.array_equal(interleaved[name], grad), name
