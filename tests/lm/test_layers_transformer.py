"""Tests for the numpy layers and transformer (including gradient checks)."""

import numpy as np
import pytest

from repro.lm import Adam, ModelConfig, Tokenizer, TransformerLM
from repro.lm.layers import LayerNorm, Linear, causal_mask, softmax
from repro.lm.optim import MAX_GRAD_NORM
from repro.errors import TrainingError
from repro.utils.rng import seeded_rng


def numeric_gradient(f, param, index, eps=1e-3):
    original = float(param.value[index])
    param.value[index] = original + eps
    up = f()
    param.value[index] = original - eps
    down = f()
    param.value[index] = original
    return (up - down) / (2 * eps)


@pytest.fixture()
def tiny_model() -> TransformerLM:
    config = ModelConfig(vocab_size=12, max_seq_len=10, dim=8, num_heads=2, num_layers=1, hidden_dim=16)
    return TransformerLM(config, seed=3)


@pytest.fixture()
def tiny_tokens() -> np.ndarray:
    return np.array([[1, 4, 5, 6, 2, 0, 0], [1, 7, 8, 9, 10, 2, 0]])


class TestLayers:
    def test_softmax_rows_sum_to_one(self, rng):
        x = rng.normal(size=(3, 5)).astype(np.float32)
        assert np.allclose(softmax(x).sum(axis=-1), 1.0, atol=1e-5)

    def test_linear_shapes(self, rng):
        layer = Linear(4, 6, seeded_rng(0))
        out = layer.forward(rng.normal(size=(2, 3, 4)).astype(np.float32))
        assert out.shape == (2, 3, 6)
        dx = layer.backward(np.ones_like(out))
        assert dx.shape == (2, 3, 4)

    def test_linear_backward_before_forward_raises(self):
        layer = Linear(4, 6, seeded_rng(0))
        with pytest.raises(TrainingError):
            layer.backward(np.ones((1, 1, 6)))

    def test_layernorm_normalises(self, rng):
        layer = LayerNorm(8)
        out = layer.forward(rng.normal(size=(2, 4, 8)).astype(np.float32))
        assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-4)
        assert np.allclose(out.std(axis=-1), 1.0, atol=1e-2)

    def test_lora_adapter_initially_identity(self, rng):
        layer = Linear(4, 4, seeded_rng(0))
        x = rng.normal(size=(1, 2, 4)).astype(np.float32)
        base = layer.forward(x).copy()
        layer.add_lora(2, seeded_rng(1))
        assert np.allclose(layer.forward(x), base)   # B starts at zero

    def test_lora_rank_must_be_positive(self):
        layer = Linear(4, 4, seeded_rng(0))
        with pytest.raises(TrainingError):
            layer.add_lora(0, seeded_rng(1))


class TestCausalMaskCache:
    def test_mask_pattern_square_and_rectangular(self):
        square = causal_mask(3)
        assert square.tolist() == [
            [False, True, True],
            [False, False, True],
            [False, False, False],
        ]
        # Rectangular: 2 new queries against 5 total keys (KV-cached decode);
        # query row i may see keys 0 .. total - time + i.
        rect = causal_mask(2, 5)
        assert rect.tolist() == [
            [False, False, False, False, True],
            [False, False, False, False, False],
        ]

    def test_mask_is_cached_and_read_only(self):
        assert causal_mask(4) is causal_mask(4)
        assert causal_mask(4, 7) is causal_mask(4, 7)
        assert causal_mask(4) is not causal_mask(4, 5)
        with pytest.raises(ValueError):
            causal_mask(4)[0, 0] = True


class TestEffectiveWeightCache:
    def test_cache_reused_until_a_parameter_version_bumps(self):
        layer = Linear(4, 4, seeded_rng(0))
        layer.add_lora(2, seeded_rng(1))
        first = layer.effective_weight()
        assert layer.effective_weight() is first  # no re-materialisation
        layer.lora_b.value[:] = 0.25
        layer.lora_b.bump()
        second = layer.effective_weight()
        assert second is not first
        assert not np.allclose(second, first)

    def test_optimizer_step_invalidates_the_cache(self):
        layer = Linear(4, 4, seeded_rng(0))
        layer.add_lora(2, seeded_rng(1))
        x = np.ones((1, 2, 4), dtype=np.float32)
        cached = layer.effective_weight()
        optimizer = Adam(layer.parameters(), learning_rate=1e-2)
        optimizer.zero_grad()
        layer.backward(np.ones_like(layer.forward(x)))
        optimizer.step()
        assert layer.effective_weight() is not cached  # Adam bumped the versions

    def test_load_state_dict_bumps_versions(self, tiny_model):
        versions = {p.name: p.version for p in tiny_model.parameters()}
        tiny_model.load_state_dict(tiny_model.state_dict())
        assert all(p.version > versions[p.name] for p in tiny_model.parameters())


class TestTransformer:
    def test_forward_shape(self, tiny_model, tiny_tokens):
        logits = tiny_model.forward(tiny_tokens)
        assert logits.shape == (2, 7, 12)

    def test_sequence_too_long_raises(self, tiny_model):
        with pytest.raises(TrainingError):
            tiny_model.forward(np.zeros((1, 30), dtype=np.int64))

    def test_cross_entropy_decreases_with_training(self, tiny_model, tiny_tokens):
        optimizer = Adam(tiny_model.parameters(), learning_rate=5e-3)
        first = tiny_model.cross_entropy(tiny_tokens, pad_id=0, backward=False)
        for _ in range(30):
            optimizer.zero_grad()
            tiny_model.cross_entropy(tiny_tokens, pad_id=0, backward=True)
            optimizer.step()
        last = tiny_model.cross_entropy(tiny_tokens, pad_id=0, backward=False)
        assert last < first * 0.7

    def test_gradient_check_cross_entropy(self, tiny_model, tiny_tokens):
        tiny_model.zero_grad()
        tiny_model.cross_entropy(tiny_tokens, pad_id=0, backward=True)
        checked = 0
        for param in tiny_model.parameters()[::4]:
            index = np.unravel_index(np.argmax(np.abs(param.grad)), param.value.shape)
            numeric = numeric_gradient(
                lambda: tiny_model.cross_entropy(tiny_tokens, pad_id=0, backward=False), param, index
            )
            analytic = float(param.grad[index])
            assert numeric == pytest.approx(analytic, rel=0.05, abs=2e-3)
            checked += 1
        assert checked >= 3

    def test_sequence_log_probs_gradient_check(self, tiny_model, tiny_tokens):
        mask = (tiny_tokens[:, 1:] != 0).astype(np.float32)
        tiny_model.zero_grad()
        _, backward = tiny_model.sequence_log_probs_with_grad(tiny_tokens, mask)
        backward(np.ones(2))
        param = tiny_model.head.weight
        index = np.unravel_index(np.argmax(np.abs(param.grad)), param.value.shape)
        numeric = numeric_gradient(
            lambda: float(tiny_model.sequence_log_probs(tiny_tokens, mask).sum()), param, index
        )
        assert numeric == pytest.approx(float(param.grad[index]), rel=0.05, abs=2e-3)

    def test_clone_is_independent(self, tiny_model, tiny_tokens):
        clone = tiny_model.clone()
        before = clone.sequence_log_probs(tiny_tokens, np.ones((2, 6), dtype=np.float32))
        tiny_model.head.weight.value += 1.0
        after = clone.sequence_log_probs(tiny_tokens, np.ones((2, 6), dtype=np.float32))
        assert np.allclose(before, after)

    def test_lora_freezes_base(self, tiny_model):
        trainable = tiny_model.add_lora_adapters(2, seed=0)
        assert trainable < tiny_model.num_parameters()
        assert not tiny_model.head.weight.trainable
        assert tiny_model.head.lora_a.trainable

    def test_state_dict_roundtrip(self, tiny_model, tiny_tokens):
        state = tiny_model.state_dict()
        other = TransformerLM(tiny_model.config, seed=99)
        other.load_state_dict(state)
        mask = np.ones((2, 6), dtype=np.float32)
        assert np.allclose(
            tiny_model.sequence_log_probs(tiny_tokens, mask), other.sequence_log_probs(tiny_tokens, mask), atol=1e-5
        )

    def test_load_state_dict_shape_mismatch(self, tiny_model):
        state = tiny_model.state_dict()
        state["head.weight"] = np.zeros((2, 2))
        with pytest.raises(TrainingError):
            tiny_model.load_state_dict(state)

    def test_invalid_config(self):
        with pytest.raises(TrainingError):
            ModelConfig(vocab_size=0)
        with pytest.raises(TrainingError):
            ModelConfig(vocab_size=10, dim=10, num_heads=3)


class TestOptimizers:
    def test_adam_only_updates_trainable(self, tiny_model, tiny_tokens):
        tiny_model.add_lora_adapters(2, seed=0)
        frozen_before = tiny_model.head.weight.value.copy()
        optimizer = Adam(tiny_model.parameters(), learning_rate=1e-2)
        optimizer.zero_grad()
        tiny_model.cross_entropy(tiny_tokens, pad_id=0, backward=True)
        optimizer.step()
        assert np.allclose(tiny_model.head.weight.value, frozen_before)
        assert not np.allclose(tiny_model.head.lora_b.value, 0.0)

    def test_adam_keeps_state_for_trainable_parameters_only(self, tiny_model):
        tiny_model.add_lora_adapters(2, seed=0)
        optimizer = Adam(tiny_model.parameters(), learning_rate=1e-2)
        trainable = [p for p in tiny_model.parameters() if p.trainable]
        assert len(trainable) < len(tiny_model.parameters())
        assert [id(p) for p in optimizer.parameters] == [id(p) for p in trainable]
        assert [m.shape for m in optimizer._m] == [v.shape for v in optimizer._v] == [p.shape for p in trainable]

    def test_gradient_clipping(self, tiny_model, tiny_tokens):
        optimizer = Adam(tiny_model.parameters(), learning_rate=1e-3)
        optimizer.zero_grad()
        tiny_model.cross_entropy(tiny_tokens, pad_id=0, backward=True)
        scale = 10.0 * MAX_GRAD_NORM / optimizer.grad_norm()
        for param in optimizer.parameters:
            param.grad *= scale
        norm_before = optimizer.grad_norm()
        assert norm_before > MAX_GRAD_NORM
        assert optimizer.clip_gradients() == norm_before
        assert optimizer.grad_norm() <= MAX_GRAD_NORM * (1 + 1e-6)
        assert norm_before > optimizer.grad_norm()

    def test_invalid_learning_rate(self, tiny_model):
        with pytest.raises(TrainingError):
            Adam(tiny_model.parameters(), learning_rate=0.0)


class TestTokenizer:
    def test_fit_encode_decode_roundtrip(self):
        tokenizer = Tokenizer.fit(["1. Observe the traffic light.\n2. Turn right."])
        ids = tokenizer.encode("1. Observe the traffic light.", add_bos=True, add_eos=True)
        assert ids[0] == tokenizer.bos_id and ids[-1] == tokenizer.eos_id
        text = tokenizer.decode(ids)
        assert "observe the traffic light" in text

    def test_unknown_words_map_to_unk(self):
        tokenizer = Tokenizer.fit(["hello world"])
        ids = tokenizer.encode("completely different words")
        assert all(i == tokenizer.unk_id for i in ids)

    def test_newlines_become_tokens(self):
        tokenizer = Tokenizer.fit(["a\nb"])
        ids = tokenizer.encode("a\nb")
        assert tokenizer.newline_id in ids

    def test_unfitted_tokenizer_raises(self):
        with pytest.raises(TrainingError):
            Tokenizer().encode("anything")
