"""In-place kernels against the expressions they replaced, bit for bit.

The activation kernels of ``repro.lm.layers`` (and the embedding sum and the
DPO logits gradient of ``repro.lm.transformer``) write into arrays they
allocated themselves rather than into a fresh temporary per operator.  Each
float operation keeps its operands and their order, so every output must be
bitwise what the one-temporary-per-operator expression gives.  Each test
writes that expression out inline as the oracle and runs both on seeded
float32 inputs: last-axis widths 1, 7, 8, 9 and 95, causally masked score
rows, and values near ±80 and near float32's underflow.  Every input, and
every array a cache holds, must come out of the call unchanged.
"""

import math

import numpy as np
import pytest

from repro.lm import DecodeState, ModelConfig, TransformerLM
from repro.lm.layers import (
    DTYPE,
    CausalSelfAttention,
    FeedForward,
    LayerNorm,
    Linear,
    TransformerBlock,
    _gelu_with_cache,
    _length_stable_row_sum,
    _rowsafe_matmul,
    attention_softmax,
    causal_mask,
    gelu_grad,
    softmax,
)
from repro.lm.transformer import _backward_group, forward_groups, plan_length_groups, target_widths
from repro.utils.rng import seeded_rng

WIDTHS = (1, 7, 8, 9, 95)
REGIMES = ("normal", "near ±80", "near underflow", "mixed")
_GELU_C = math.sqrt(2.0 / math.pi)


def sample(rng: np.random.Generator, shape, regime: str) -> np.ndarray:
    """Seeded float32 values of one regime."""
    sign = rng.choice(np.array([-1.0, 1.0]), size=shape)
    normal = rng.standard_normal(shape)
    large = sign * (80.0 + rng.uniform(-1.0, 1.0, size=shape))
    # Down into the subnormals (the smallest is 1.4e-45).
    tiny = sign * 10.0 ** rng.uniform(-45.0, -36.0, size=shape)
    if regime == "normal":
        values = normal
    elif regime == "near ±80":
        values = large
    elif regime == "near underflow":
        values = tiny
    else:
        values = np.choose(rng.integers(0, 3, size=shape), [normal, large, tiny])
    return values.astype(DTYPE)


def cases():
    for width in WIDTHS:
        for regime in REGIMES:
            yield pytest.param(width, regime, id=f"w{width}-{regime}")


def assert_bitwise(ours, oracle, what: str) -> None:
    assert isinstance(ours, np.ndarray) and ours.dtype == DTYPE, f"{what}: dtype {getattr(ours, 'dtype', None)}"
    assert oracle.dtype == DTYPE and ours.shape == oracle.shape, f"{what}: shape {ours.shape} vs {oracle.shape}"
    differ = np.ascontiguousarray(ours).view(np.uint32) != np.ascontiguousarray(oracle).view(np.uint32)
    assert not differ.any(), f"{what}: {int(differ.sum())} of {differ.size} values differ in their bits"


def arrays_in(obj) -> list:
    """Every ndarray inside nested tuples and lists."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, (tuple, list)):
        return [array for item in obj for array in arrays_in(item)]
    return []


class Unchanged:
    """Snapshot arrays, then assert that a call left each one's bits alone."""

    def __init__(self, *objects):
        self.arrays = [array for obj in objects for array in arrays_in(obj)]
        self.copies = [array.copy() for array in self.arrays]

    def check(self, what: str) -> None:
        for index, (array, copy) in enumerate(zip(self.arrays, self.copies)):
            assert np.array_equal(array.view(np.uint8), copy.view(np.uint8)), f"{what} wrote into array {index}"


def grads_of(layer) -> dict:
    return {param.name: param.grad.copy() for param in layer.parameters()}


def assert_grads_bitwise(ours: dict, oracle: dict, what: str) -> None:
    assert ours.keys() == oracle.keys()
    for name in ours:
        assert_bitwise(ours[name], oracle[name], f"{what}: {name}.grad")


def randomise(layer, rng) -> None:
    """Non-trivial values for every parameter (LayerNorm's gain and shift
    start at one and zero, biases at zero)."""
    for param in layer.parameters():
        param.value[...] = rng.normal(0.5, 0.3, size=param.shape)
        param.bump()


# ---------------------------------------------------------------------- #
# GELU
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize(("width", "regime"), cases())
def test_gelu_and_its_gradient(width, regime):
    rng = np.random.default_rng(width)
    x = sample(rng, (3, 4, width), regime)
    before = Unchanged(x)
    out, tanh_inner = _gelu_with_cache(x)
    x3 = x * x * x
    oracle_tanh = np.tanh(_GELU_C * (x + 0.044715 * x3))
    assert_bitwise(tanh_inner, oracle_tanh, "GELU tanh term")
    assert_bitwise(out, 0.5 * x * (1.0 + oracle_tanh), "GELU")
    before.check("GELU")

    before = Unchanged(x, tanh_inner)
    grad = gelu_grad(x, tanh_inner)
    sech2 = 1.0 - tanh_inner ** 2
    oracle = 0.5 * (1.0 + tanh_inner) + 0.5 * x * sech2 * _GELU_C * (1.0 + 3 * 0.044715 * x * x)
    assert_bitwise(grad, oracle, "GELU gradient")
    before.check("gelu_grad")


@pytest.mark.parametrize(("width", "regime"), cases())
def test_feed_forward_backward(width, regime):
    rng = np.random.default_rng(10 + width)
    layer = FeedForward(16, 32, seeded_rng(0))
    x = sample(rng, (2, width, 16), regime)
    _, cache = layer.forward(x)
    dout = sample(rng, (2, width, 16), regime)
    before = Unchanged(cache, dout)
    dx = layer.backward(cache, dout)
    before.check("FeedForward.backward")
    ours = grads_of(layer)
    layer.zero_grad()
    x, pre, tanh_inner, activated = cache
    dhidden = layer.fc_out.backward(activated, dout)
    dpre = dhidden * gelu_grad(pre, tanh_inner)
    assert_bitwise(dx, layer.fc_in.backward(x, dpre), "FeedForward dx")
    assert_grads_bitwise(ours, grads_of(layer), "FeedForward")


# ---------------------------------------------------------------------- #
# LayerNorm
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize(("width", "regime"), cases())
def test_layer_norm_forward(width, regime):
    rng = np.random.default_rng(20 + width)
    layer = LayerNorm(width)
    randomise(layer, rng)
    x = sample(rng, (3, 5, width), regime)
    before = Unchanged(x)
    out, (normalised, inv_std) = layer.forward(x)
    before.check("LayerNorm.forward")
    centred = x - x.sum(axis=-1, keepdims=True) / width
    var = (centred * centred).sum(axis=-1, keepdims=True) / width
    oracle_inv_std = 1.0 / np.sqrt(var + layer.eps)
    oracle_normalised = centred * oracle_inv_std
    assert_bitwise(inv_std, oracle_inv_std, "LayerNorm inv_std")
    assert_bitwise(normalised, oracle_normalised, "LayerNorm normalised")
    assert_bitwise(out, oracle_normalised * layer.gain.value + layer.shift.value, "LayerNorm output")


@pytest.mark.parametrize("trainable", [True, False], ids=["trained", "frozen"])
@pytest.mark.parametrize(("width", "regime"), cases())
def test_layer_norm_backward(width, regime, trainable):
    rng = np.random.default_rng(30 + width)
    layer = LayerNorm(width)
    randomise(layer, rng)
    layer.gain.trainable = layer.shift.trainable = trainable
    _, cache = layer.forward(sample(rng, (3, 5, width), regime))
    dout = sample(rng, (3, 5, width), regime)
    before = Unchanged(cache, dout)
    dx = layer.backward(cache, dout)
    before.check("LayerNorm.backward")
    ours = grads_of(layer)
    layer.zero_grad()
    normalised, inv_std = cache
    if trainable:
        layer.gain.grad += (dout * normalised).reshape(-1, width).sum(axis=0)
        layer.shift.grad += dout.reshape(-1, width).sum(axis=0)
    dnorm = dout * layer.gain.value
    mean_dnorm = dnorm.sum(axis=-1, keepdims=True) / width
    mean_dnorm_norm = (dnorm * normalised).sum(axis=-1, keepdims=True) / width
    oracle = (dnorm - mean_dnorm - normalised * mean_dnorm_norm) * inv_std
    assert_bitwise(dx, oracle, "LayerNorm dx")
    assert_grads_bitwise(ours, grads_of(layer), "LayerNorm")


# ---------------------------------------------------------------------- #
# Softmaxes and attention
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize(("width", "regime"), cases())
def test_softmax(width, regime):
    x = sample(np.random.default_rng(40 + width), (3, 4, width), regime)
    for axis in (-1, 0):
        before = Unchanged(x)
        probs = softmax(x, axis=axis)
        before.check("softmax")
        shifted = x - x.max(axis=axis, keepdims=True)
        exp = np.exp(shifted)
        assert_bitwise(probs, exp / exp.sum(axis=axis, keepdims=True), f"softmax over axis {axis}")


def masked_scores(rng, width: int, regime: str) -> np.ndarray:
    scores = sample(rng, (2, 3, width, width), regime)
    return np.where(causal_mask(width), -1e30, scores).astype(DTYPE)


@pytest.mark.parametrize(("width", "regime"), cases())
def test_attention_softmax_over_causally_masked_rows(width, regime):
    scores = masked_scores(np.random.default_rng(50 + width), width, regime)
    before = Unchanged(scores)
    attention = attention_softmax(scores)
    before.check("attention_softmax")
    shifted = scores - scores.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    assert_bitwise(attention, exp / _length_stable_row_sum(exp), "attention softmax")


def attend_oracle(layer, q, k, v) -> tuple:
    time, total = q.shape[2], k.shape[2]
    duplicated = time == 1
    q_rows = np.concatenate([q, q], axis=2) if duplicated else q
    scores = (q_rows @ k.transpose(0, 1, 3, 2)) * layer.scale
    if not duplicated:
        scores = np.where(causal_mask(time, total), -1e30, scores)
    attention = attention_softmax(scores)
    context = attention @ v
    if duplicated:
        return context[:, :, :1], attention[:, :, :1]
    return context, attention


@pytest.mark.parametrize(("width", "regime"), cases())
def test_attend_square_and_incremental(width, regime):
    rng = np.random.default_rng(60 + width)
    layer = CausalSelfAttention(32, 2, seeded_rng(0))
    k = sample(rng, (2, 2, width, 16), regime)
    v = sample(rng, (2, 2, width, 16), regime)
    # The training forward's square mask, then decode's rectangular one (the
    # last few queries over every key) and its lone-query step.
    for time in sorted({width, max(1, width // 3), 1}, reverse=True):
        q = sample(rng, (2, 2, time, 16), regime)
        before = Unchanged(q, k, v)
        context, attention = layer._attend(q, k, v)
        before.check("_attend")
        oracle_context, oracle_attention = attend_oracle(layer, q, k, v)
        assert_bitwise(attention, oracle_attention, f"attention of {time} queries over {width} keys")
        assert_bitwise(context, oracle_context, f"context of {time} queries over {width} keys")


@pytest.mark.parametrize(("width", "regime"), cases())
def test_attention_backward(width, regime):
    rng = np.random.default_rng(70 + width)
    layer = CausalSelfAttention(32, 2, seeded_rng(0))
    randomise(layer, rng)
    _, cache = layer.forward(sample(rng, (2, width, 32), regime))
    dout = sample(rng, (2, width, 32), regime)
    before = Unchanged(cache, dout)
    dx = layer.backward(cache, dout)
    before.check("CausalSelfAttention.backward")
    ours = grads_of(layer)
    layer.zero_grad()
    x, q, k, v, attention, merged = cache
    dcontext = layer._split_heads(layer.w_o.backward(merged, dout))
    dattention = dcontext @ v.transpose(0, 1, 3, 2)
    dv = attention.transpose(0, 1, 3, 2) @ dcontext
    dscores = attention * (dattention - (dattention * attention).sum(axis=-1, keepdims=True))
    dscores = dscores * layer.scale
    dq = dscores @ k
    dk = dscores.transpose(0, 1, 3, 2) @ q
    oracle = layer.w_q.backward(x, layer._merge_heads(dq))
    oracle = oracle + layer.w_k.backward(x, layer._merge_heads(dk))
    oracle = oracle + layer.w_v.backward(x, layer._merge_heads(dv))
    assert_bitwise(dx, oracle, "attention dx")
    assert_grads_bitwise(ours, grads_of(layer), "CausalSelfAttention")


# ---------------------------------------------------------------------- #
# Linear's bias, the residual adds and the embedding sum
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize(("width", "regime"), cases())
def test_linear_forward_adds_its_bias(width, regime):
    rng = np.random.default_rng(80 + width)
    for out_features in (32, 40):  # a multiple of 16, and one padded to it
        layer = Linear(width, out_features, seeded_rng(0))
        randomise(layer, rng)
        for rows in (1, 5):  # one row takes the duplicated-row gemm
            x = sample(rng, (rows, width), regime)
            before = Unchanged(x)
            y = layer.forward(x)
            before.check("Linear.forward")
            oracle = _rowsafe_matmul(x, layer._gemm_weight())
            oracle = np.ascontiguousarray(oracle[:, :out_features]) + layer.bias.value
            assert_bitwise(y, oracle, f"Linear({width}, {out_features}) on {rows} rows")


def block_forward_oracle(block, x) -> tuple:
    normed, ln_1 = block.ln_1.forward(x)
    attended, attention = block.attention.forward(normed)
    x = x + attended
    normed, ln_2 = block.ln_2.forward(x)
    mixed, mlp = block.mlp.forward(normed)
    return x + mixed, (ln_1, attention, ln_2, mlp)


@pytest.mark.parametrize(("width", "regime"), cases())
def test_transformer_block_residuals(width, regime):
    rng = np.random.default_rng(90 + width)
    block = TransformerBlock(32, 2, 64, seeded_rng(0))
    randomise(block, rng)
    x = sample(rng, (2, width, 32), regime)
    before = Unchanged(x)
    y, cache = block.forward(x)
    before.check("TransformerBlock.forward")
    oracle_y, oracle_cache = block_forward_oracle(block, x)
    assert_bitwise(y, oracle_y, "block output")
    for index, (ours, oracle) in enumerate(zip(arrays_in(cache), arrays_in(oracle_cache))):
        assert_bitwise(ours, oracle, f"block cache array {index}")

    dout = sample(rng, y.shape, regime)
    before = Unchanged(cache, dout)
    dx = block.backward(cache, dout)
    before.check("TransformerBlock.backward")
    ours = grads_of(block)
    block.zero_grad()
    ln_1, attention, ln_2, mlp = cache
    dmlp = block.mlp.backward(mlp, dout)
    oracle_dx = dout + block.ln_2.backward(ln_2, dmlp)
    dattn = block.attention.backward(attention, oracle_dx)
    assert_bitwise(dx, oracle_dx + block.ln_1.backward(ln_1, dattn), "block dx")
    assert_grads_bitwise(ours, grads_of(block), "TransformerBlock")


def tiny_lm(width: int) -> TransformerLM:
    config = ModelConfig(vocab_size=23, max_seq_len=96, dim=32, num_heads=2, num_layers=2, hidden_dim=64)
    return TransformerLM(config, seed=width)


@pytest.mark.parametrize("width", WIDTHS)
def test_embedding_sum_and_incremental_steps(width):
    rng = np.random.default_rng(100 + width)
    model = tiny_lm(width)
    tokens = rng.integers(0, 23, size=(3, width))
    before = Unchanged(tokens)
    logits, cache = model.forward(tokens)
    before.check("TransformerLM.forward")
    x = model.token_embedding.forward(tokens) + model.position_embedding.weight.value[:width]
    for block in model.blocks:
        x, _ = block_forward_oracle(block, x)
    x, _ = model.ln_final.forward(x)
    assert_bitwise(logits, model.head.forward(x), "logits")

    # Decode: a prompt, then one token at a time, against the parent's step.
    ours, theirs = DecodeState.for_model(model, 3), DecodeState.for_model(model, 3)
    for start, stop in [(0, max(1, width - 2))] + [(t, t + 1) for t in range(max(1, width - 2), width)]:
        step = tokens[:, start:stop]
        x = model.token_embedding.forward(step) + model.position_embedding.weight.value[start:stop]
        for block, kv in zip(model.blocks, theirs.layers):
            x = x + block.attention.forward_step(block.ln_1.forward(x)[0], kv, start)
            x = x + block.mlp.forward(block.ln_2.forward(x)[0])[0]
        theirs.length = stop
        oracle = model.head.forward(model.ln_final.forward(x[:, -1:, :])[0])[:, 0, :]
        assert_bitwise(model.forward_step(step, ours), oracle, f"decode logits at positions {start}..{stop - 1}")


@pytest.mark.parametrize("width", WIDTHS)
def test_dpo_logits_gradient_consumes_only_its_probs(width):
    rng = np.random.default_rng(110 + width)
    model = tiny_lm(width)
    model.add_lora_adapters(2, seed=width)
    for layer in model.linear_layers():
        layer.lora_b.value[...] = rng.normal(0.0, 0.05, size=layer.lora_b.shape)
        layer.lora_b.bump()
    tokens = rng.integers(0, 23, size=(6, width + 1))
    # Rows of several lengths, as in a DPO batch.
    mask = (rng.random((6, width)) < 0.7).astype(DTYPE)
    for row, length in enumerate(rng.integers(1, width + 1, size=6)):
        mask[row, length - 1] = 1.0
        mask[row, length:] = 0.0
    groups = plan_length_groups(target_widths(mask))
    plan = [(slot, rows, group_width) for slot, (rows, group_width) in enumerate(groups)]
    _, kept = forward_groups(model, tokens, mask, plan, negate=False)
    coefficients = rng.normal(size=6).astype(DTYPE)
    for group in kept:
        slot, rows, _, index, group_mask, probs, cache = group
        oracle_probs = probs.copy()
        before = Unchanged(cache, group_mask, coefficients)
        model.zero_grad()
        _backward_group(model, group, None, coefficients, None)
        before.check("the DPO backward")
        ours = grads_of(model)
        model.zero_grad()
        dlogits = -oracle_probs
        dlogits[index] += 1.0
        dlogits *= np.asarray(group_mask, dtype=DTYPE)[..., None]
        dlogits *= coefficients[rows].reshape(-1, 1, 1)
        assert_bitwise(probs, dlogits, f"group {slot}'s dlogits")
        model.backward(cache, dlogits)
        assert_grads_bitwise(ours, grads_of(model), f"DPO group {slot}")
