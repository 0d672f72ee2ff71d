"""Neural-network layers in pure numpy with explicit backpropagation.

A layer holds its :class:`Parameter` objects and nothing a forward pass
leaves behind.  ``forward(x)`` returns ``(y, cache)``, and ``backward(cache,
dy)`` takes that cache back and returns ``dx``, adding the parameter
gradients into :attr:`Parameter.grad`.  :class:`Linear` and
:class:`Embedding` need only their input, so their ``forward`` returns ``y``
and their ``backward`` takes ``(x, dy)``.  Vectorised numpy everywhere, no
Python loops over batch or time dimensions.

The layers implement exactly what the DPO-AF pipeline needs — a small GPT-style
causal transformer with optional LoRA adapters on its linear projections — and
nothing more.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import TrainingError

#: Floating-point precision of the language model.  float32 halves the memory
#: traffic of every matmul, which is where all the training time goes.
DTYPE = np.float32


@dataclass
class Parameter:
    """A trainable tensor with its accumulated gradient.

    ``trainable=False`` freezes it (a LoRA base): backward passes leave its
    ``grad`` at zero and the optimizers hold no state for it.

    ``version`` is a monotonic counter identifying the current contents of
    ``value``.  Every code path that changes the value — optimizer steps,
    ``load_state_dict``, explicit callers of :meth:`bump` — increments it, and
    derived caches (e.g. the materialised LoRA weight in :class:`Linear`) key
    on it to know when to recompute.  Code that mutates ``param.value`` in
    place outside those paths must call :meth:`bump` itself.

    While a training loop runs (:class:`repro.lm.shards.TrainingShards`),
    ``value`` is a view into memory shared with the training worker, and
    ``grad`` a view into one flat buffer (or, during a group's backward, into
    that group's slab row).  So values change in place — the optimizer's
    update and ``load_state_dict`` write into the array — never by
    rebinding ``value``.  The worker sees those writes but not the bumps;
    it bumps its own copies when the caller's step number changes.
    """

    value: np.ndarray
    name: str = ""
    trainable: bool = True
    grad: np.ndarray = field(default=None, repr=False)
    version: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        self.value = np.asarray(self.value, dtype=DTYPE)
        self.grad = np.zeros_like(self.value)

    def bump(self) -> None:
        """Record that ``value`` changed, invalidating version-keyed caches."""
        self.version += 1

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    @property
    def shape(self) -> tuple:
        return self.value.shape

    @property
    def size(self) -> int:
        return int(self.value.size)


class Layer:
    """Base class: every layer exposes its parameters for the optimizer."""

    def parameters(self) -> list:
        """All :class:`Parameter` objects owned by this layer (and children)."""
        params: list[Parameter] = []
        for attr in vars(self).values():
            if isinstance(attr, Parameter):
                params.append(attr)
            elif isinstance(attr, Layer):
                params.extend(attr.parameters())
            elif isinstance(attr, (list, tuple)):
                for item in attr:
                    if isinstance(item, Layer):
                        params.extend(item.parameters())
                    elif isinstance(item, Parameter):
                        params.append(item)
        return params

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()


def _xavier(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    scale = math.sqrt(2.0 / (fan_in + fan_out))
    return rng.normal(0.0, scale, size=(fan_in, fan_out))


@functools.lru_cache(maxsize=None)
def causal_mask(time: int, total: int | None = None) -> np.ndarray:
    """Read-only boolean mask hiding future positions, cached process-wide.

    ``causal_mask(t)`` is the standard ``(t, t)`` strict-upper-triangular mask
    (True = masked).  The two-argument form ``causal_mask(t, total)`` covers
    incremental decoding, where ``t`` new queries at positions
    ``total - t .. total - 1`` attend over ``total`` cached keys: entry
    ``(i, j)`` is masked iff ``j > (total - t) + i``.  The returned array is
    marked non-writeable so the cache can be shared safely across threads.
    """
    total = time if total is None else total
    mask = np.triu(np.ones((time, total), dtype=bool), k=total - time + 1)
    mask.flags.writeable = False
    return mask


#: Column multiple every Linear gemm is padded to.  OpenBLAS edge kernels for
#: trailing output columns (N not a multiple of the register tile) pair their
#: K-loop differently from the main kernel AND differently across row counts,
#: so the same input row can produce different low-order logits bits depending
#: on batch size.  Zero-padding the weight to a multiple-of-16 column count
#: keeps every column on the main kernel, making rows M-stable (probed across
#: K ∈ {16..150}, N multiples of 16, M ∈ {2..512}).
_GEMM_COL_BLOCK = 16


def _pad_columns(weight: np.ndarray, pad: int) -> np.ndarray:
    padded = np.zeros((weight.shape[0], weight.shape[1] + pad), dtype=weight.dtype)
    padded[:, : weight.shape[1]] = weight
    return padded


def _rowsafe_matmul(flat: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """``flat @ weight`` with bitwise-stable rows regardless of row count.

    OpenBLAS dispatches single-row matmuls to gemv, whose dot-product
    reduction order differs from the gemm kernels used for two or more rows —
    the same row can come back with different low-order bits depending on how
    many other rows share the call.  Rows of a gemm result are independent of
    each other, so duplicating a lone row and slicing the first row of the
    result pins every call to the gemm kernel.  This is what makes incremental
    decoding (one token per step) bitwise-identical to full-context forwards.
    """
    if flat.shape[0] == 1:
        return (np.concatenate([flat, flat], axis=0) @ weight)[:1]
    return flat @ weight


class Linear(Layer):
    """Affine map ``y = x W + b`` with optional LoRA adapters.

    When LoRA is enabled (``add_lora``), the effective weight is ``W + A @ B``
    with ``A ∈ R^{in×r}``, ``B ∈ R^{r×out}``; the base ``W``/``b`` are frozen
    and only ``A``/``B`` receive optimizer updates (Appendix E of the paper /
    Hu et al. 2021).
    """

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator, *, bias: bool = True, name: str = "linear"):
        self.in_features = in_features
        self.out_features = out_features
        self.name = name
        self.weight = Parameter(_xavier(rng, in_features, out_features), name=f"{name}.weight")
        self.bias = Parameter(np.zeros(out_features), name=f"{name}.bias") if bias else None
        self.lora_a: Parameter | None = None
        self.lora_b: Parameter | None = None
        self._effective_cache: np.ndarray | None = None
        self._effective_key: tuple | None = None
        self._padded_cache: np.ndarray | None = None
        self._padded_key: tuple | None = None
        self._column_pad = (-out_features) % _GEMM_COL_BLOCK

    # ------------------------------------------------------------------ #
    def add_lora(self, rank: int, rng: np.random.Generator) -> None:
        """Attach a rank-``rank`` LoRA adapter (A is random, B starts at zero)
        and freeze the base weight and bias."""
        if rank <= 0:
            raise TrainingError(f"LoRA rank must be positive, got {rank}")
        self.lora_a = Parameter(rng.normal(0.0, 0.02, size=(self.in_features, rank)), name=f"{self.name}.lora_a")
        self.lora_b = Parameter(np.zeros((rank, self.out_features)), name=f"{self.name}.lora_b")
        self._effective_cache = None
        self._effective_key = None
        self._padded_cache = None
        self._padded_key = None
        self.weight.trainable = False
        if self.bias is not None:
            self.bias.trainable = False

    @property
    def has_lora(self) -> bool:
        return self.lora_a is not None

    def effective_weight(self) -> np.ndarray:
        """The weight actually applied: ``W`` or ``W + A @ B``.

        With LoRA attached the materialised sum is cached and keyed on the
        three parameters' :attr:`Parameter.version` counters, so repeated
        forwards/backwards between optimizer updates reuse one array instead
        of re-materialising ``W + A @ B`` on every call.  Treat the returned
        array as read-only.
        """
        if not self.has_lora:
            return self.weight.value
        key = (self.weight.version, self.lora_a.version, self.lora_b.version)
        if self._effective_cache is None or self._effective_key != key:
            self._effective_cache = self.weight.value + self.lora_a.value @ self.lora_b.value
            self._effective_key = key
        return self._effective_cache

    def _gemm_weight(self) -> np.ndarray:
        """The forward-gemm weight: effective weight, columns padded to a
        multiple of :data:`_GEMM_COL_BLOCK` (see its docstring for why).

        The padded copy is cached behind the same version key as the LoRA
        effective weight; without LoRA the pad is rebuilt from the live
        ``weight.value`` each call, preserving in-place-mutation semantics.
        """
        if self._column_pad == 0:
            return self.effective_weight()
        if self.has_lora:
            weight = self.effective_weight()
            if self._padded_cache is None or self._padded_key != self._effective_key:
                self._padded_cache = _pad_columns(weight, self._column_pad)
                self._padded_key = self._effective_key
            return self._padded_cache
        return _pad_columns(self.weight.value, self._column_pad)

    # ------------------------------------------------------------------ #
    def forward(self, x: np.ndarray) -> np.ndarray:
        flat = x.reshape(-1, self.in_features)
        # One collapsed gemm over all (batch × time) rows: bitwise-identical to
        # numpy's per-batch matmul loop (gemm rows are independent) and faster,
        # and _rowsafe_matmul keeps single-row calls off the gemv kernel.
        y = _rowsafe_matmul(flat, self._gemm_weight())
        if self._column_pad:
            y = np.ascontiguousarray(y[:, : self.out_features])
        y = y.reshape(x.shape[:-1] + (self.out_features,))
        if self.bias is not None:
            y = y + self.bias.value
        return y

    def backward(self, x: np.ndarray, dout: np.ndarray) -> np.ndarray:
        flat_x = x.reshape(-1, self.in_features)
        flat_d = dout.reshape(-1, self.out_features)
        # Frozen parameters (a LoRA base) get no gradient: dx alone carries
        # the backward pass through them.
        if self.weight.trainable:
            self.weight.grad += flat_x.T @ flat_d
        if self.bias is not None and self.bias.trainable:
            self.bias.grad += flat_d.sum(axis=0)
        if self.has_lora:
            # d/dA = x^T dout B^T ; d/dB = (xA)^T dout
            xa = flat_x @ self.lora_a.value
            self.lora_a.grad += flat_x.T @ (flat_d @ self.lora_b.value.T)
            self.lora_b.grad += xa.T @ flat_d
        # One collapsed gemm, as in forward.  dx is a gradient, so unlike the
        # forward it need not be row-stable.
        return (flat_d @ self.effective_weight().T).reshape(x.shape)


class Embedding(Layer):
    """Token (or positional) embedding lookup."""

    def __init__(self, num_embeddings: int, dim: int, rng: np.random.Generator, *, name: str = "embedding"):
        self.num_embeddings = num_embeddings
        self.dim = dim
        self.weight = Parameter(rng.normal(0.0, 0.02, size=(num_embeddings, dim)), name=f"{name}.weight")

    def forward(self, ids: np.ndarray) -> np.ndarray:
        return self.weight.value[np.asarray(ids, dtype=np.int64)]

    def backward(self, ids: np.ndarray, dout: np.ndarray) -> None:
        if self.weight.trainable:
            np.add.at(self.weight.grad, np.asarray(ids, dtype=np.int64).reshape(-1), dout.reshape(-1, self.dim))


class LayerNorm(Layer):
    """Layer normalisation over the last dimension."""

    def __init__(self, dim: int, *, eps: float = 1e-5, name: str = "layernorm"):
        self.dim = dim
        self.eps = eps
        self.gain = Parameter(np.ones(dim), name=f"{name}.gain")
        self.shift = Parameter(np.zeros(dim), name=f"{name}.shift")

    def forward(self, x: np.ndarray) -> tuple:
        # Bitwise ``x.mean`` and ``x.var`` (numpy divides the same float32
        # row sums by the count), without their per-call Python overhead and
        # with the mean computed once.
        centred = x - x.sum(axis=-1, keepdims=True) / self.dim
        var = (centred * centred).sum(axis=-1, keepdims=True) / self.dim
        inv_std = 1.0 / np.sqrt(var + self.eps)
        normalised = centred * inv_std
        return normalised * self.gain.value + self.shift.value, (normalised, inv_std)

    def backward(self, cache: tuple, dout: np.ndarray) -> np.ndarray:
        normalised, inv_std = cache
        if self.gain.trainable:
            self.gain.grad += (dout * normalised).reshape(-1, self.dim).sum(axis=0)
        if self.shift.trainable:
            self.shift.grad += dout.reshape(-1, self.dim).sum(axis=0)
        dnorm = dout * self.gain.value
        # Standard layer-norm backward over the last axis.
        mean_dnorm = dnorm.sum(axis=-1, keepdims=True) / self.dim
        mean_dnorm_norm = (dnorm * normalised).sum(axis=-1, keepdims=True) / self.dim
        return (dnorm - mean_dnorm - normalised * mean_dnorm_norm) * inv_std


_GELU_C = math.sqrt(2.0 / math.pi)


def _gelu_with_cache(x: np.ndarray) -> tuple:
    """GELU (tanh approximation) plus the tanh term needed by its derivative."""
    x3 = x * x * x
    tanh_inner = np.tanh(_GELU_C * (x + 0.044715 * x3))
    return 0.5 * x * (1.0 + tanh_inner), tanh_inner


def gelu_grad(x: np.ndarray, tanh_inner: np.ndarray) -> np.ndarray:
    """Derivative of the tanh-approximated GELU, given its forward tanh term."""
    sech2 = 1.0 - tanh_inner ** 2
    return 0.5 * (1.0 + tanh_inner) + 0.5 * x * sech2 * _GELU_C * (1.0 + 3 * 0.044715 * x * x)


class FeedForward(Layer):
    """Position-wise MLP: Linear → GELU → Linear."""

    def __init__(self, dim: int, hidden_dim: int, rng: np.random.Generator, *, name: str = "mlp"):
        self.fc_in = Linear(dim, hidden_dim, rng, name=f"{name}.fc_in")
        self.fc_out = Linear(hidden_dim, dim, rng, name=f"{name}.fc_out")

    def forward(self, x: np.ndarray) -> tuple:
        pre = self.fc_in.forward(x)
        activated, tanh_inner = _gelu_with_cache(pre)
        return self.fc_out.forward(activated), (x, pre, tanh_inner, activated)

    def backward(self, cache: tuple, dout: np.ndarray) -> np.ndarray:
        x, pre, tanh_inner, activated = cache
        dhidden = self.fc_out.backward(activated, dout)
        dpre = dhidden * gelu_grad(pre, tanh_inner)
        return self.fc_in.backward(x, dpre)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    shifted = x - x.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


#: Widest row the length-stable sum reduces in one pass: numpy's pairwise
#: summation block (``PW_BLOCKSIZE``), inside which its float sum keeps the
#: fixed 8-accumulator pairing :func:`_length_stable_row_sum` relies on.
#: Wider rows are summed per 128-column chunk; every ``max_seq_len`` this
#: repo ships (96) fits in one.
_STABLE_SUM_CHUNK = 128

#: Accumulators of numpy's pairwise sum within one block.
_PAIRWISE_LANES = 8


def _length_stable_row_sum(exp: np.ndarray) -> np.ndarray:
    """Sum over the last axis with bits invariant to trailing zeros.

    numpy's pairwise summation changes its pairing with row length, so a row
    summed at length ``S`` and the same row summed at length ``S + pad`` with
    exact-zero padding can differ in the last ulp.  Incremental decoding needs
    the opposite: an attention row computed against ``S`` cached keys must get
    bit-for-bit the denominator the full-context forward computes over a
    longer masked row — and so must a training row run at its length group's
    width rather than the batch's.

    For ``n <= 128`` columns numpy's float sum does not recurse: with
    ``n >= 8`` it keeps 8 accumulators, accumulator ``j`` adding columns
    ``j, j + 8, j + 16, …`` left to right up to the last multiple of 8, then
    combines them in the fixed tree ``((r0 + r1) + (r2 + r3)) + ((r4 + r5) +
    (r6 + r7))`` and adds the ``n mod 8`` leftover columns one by one.  So a
    row zero-padded to a multiple of 8 (at least 8) has no leftovers, and
    padding it further, up to 128 columns, only adds exact ``+0.0`` to the
    accumulators: its sum is bitwise the sum of the row padded to 128, for
    every row length.  Wider rows are padded to a multiple of 128, summed per
    chunk, and the chunk sums accumulated strictly left to right.  The kernel
    probe in the test suite checks the property on the installed numpy.
    """
    length = exp.shape[-1]
    block = _PAIRWISE_LANES if length <= _STABLE_SUM_CHUNK else _STABLE_SUM_CHUNK
    width = max(block, -(-length // block) * block)
    if width == length <= _STABLE_SUM_CHUNK and exp.flags.c_contiguous:
        return exp.sum(axis=-1, keepdims=True)  # already a multiple of 8: no copy
    padded = np.zeros(exp.shape[:-1] + (width,), dtype=exp.dtype)
    padded[..., :length] = exp
    if width <= _STABLE_SUM_CHUNK:
        return padded.sum(axis=-1, keepdims=True)
    chunked = padded.reshape(exp.shape[:-1] + (width // _STABLE_SUM_CHUNK, _STABLE_SUM_CHUNK)).sum(axis=-1)
    return np.cumsum(chunked, axis=-1)[..., -1:]


def attention_softmax(scores: np.ndarray) -> np.ndarray:
    """Softmax over attention score rows, stable under masked-tail length.

    Identical values to :func:`softmax` (within 1 ulp) but with a
    length-stable denominator: masked entries (``-1e30``) exponentiate to
    exactly ``+0.0``, so a row's probabilities carry the same bits whether it
    is computed at its own length (incremental decode), inside a longer
    causally-masked full forward, or in any batch size.  This is what makes
    KV-cached decoding bitwise-identical to full recompute.
    """
    shifted = scores - scores.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / _length_stable_row_sum(exp)


class CausalSelfAttention(Layer):
    """Multi-head causal self-attention."""

    def __init__(self, dim: int, num_heads: int, rng: np.random.Generator, *, name: str = "attn"):
        if dim % num_heads != 0:
            raise TrainingError(f"model dim {dim} is not divisible by num_heads {num_heads}")
        self.dim = dim
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        self.scale = 1.0 / math.sqrt(self.head_dim)
        self.w_q = Linear(dim, dim, rng, name=f"{name}.w_q")
        self.w_k = Linear(dim, dim, rng, name=f"{name}.w_k")
        self.w_v = Linear(dim, dim, rng, name=f"{name}.w_v")
        self.w_o = Linear(dim, dim, rng, name=f"{name}.w_o")

    def _split_heads(self, x: np.ndarray) -> np.ndarray:
        batch, time, _ = x.shape
        return x.reshape(batch, time, self.num_heads, self.head_dim).transpose(0, 2, 1, 3)

    def _merge_heads(self, x: np.ndarray) -> np.ndarray:
        batch, heads, time, head_dim = x.shape
        return x.transpose(0, 2, 1, 3).reshape(batch, time, heads * head_dim)

    def _attend(self, q: np.ndarray, k: np.ndarray, v: np.ndarray) -> tuple:
        """``(context, attention)`` of ``time`` queries over ``total`` keys.

        The queries sit at the last ``time`` of the ``total`` positions, so
        the causal mask is :func:`causal_mask` ``(time, total)``: the square
        mask in training, the rectangular one in incremental decoding.
        """
        time, total = q.shape[2], k.shape[2]
        # A lone query row would hit the gemv kernel; duplicate it so the
        # score/context matmuls stay on the row-stable gemm path (see
        # _rowsafe_matmul).  One query attends every key: nothing to mask.
        duplicated = time == 1
        q_rows = np.concatenate([q, q], axis=2) if duplicated else q
        # (b, h, t, d) @ (b, h, d, s) -> (b, h, t, s); matmul dispatches to BLAS.
        scores = (q_rows @ k.transpose(0, 1, 3, 2)) * self.scale
        if not duplicated:
            scores = np.where(causal_mask(time, total), -1e30, scores)
        attention = attention_softmax(scores)
        context = attention @ v
        if duplicated:
            return context[:, :, :1], attention[:, :, :1]
        return context, attention

    def forward(self, x: np.ndarray) -> tuple:
        q = self._split_heads(self.w_q.forward(x))
        k = self._split_heads(self.w_k.forward(x))
        v = self._split_heads(self.w_v.forward(x))
        context, attention = self._attend(q, k, v)
        merged = self._merge_heads(context)
        return self.w_o.forward(merged), (x, q, k, v, attention, merged)

    def forward_step(self, x: np.ndarray, kv, offset: int) -> np.ndarray:
        """Incremental forward: attend ``x``'s tokens against the KV cache.

        ``x`` holds ``t_new`` tokens per lane at absolute positions
        ``offset .. offset + t_new - 1``; their keys/values are appended to
        ``kv`` (a :class:`repro.lm.decode.LayerKV`) in place and attention runs
        over exactly ``offset + t_new`` cached positions — the softmax axis has
        no padding, which keeps its reduction bitwise-identical to the
        full-context forward.
        """
        t_new = x.shape[1]
        q = self._split_heads(self.w_q.forward(x))
        kv.k[:, :, offset:offset + t_new] = self._split_heads(self.w_k.forward(x))
        kv.v[:, :, offset:offset + t_new] = self._split_heads(self.w_v.forward(x))
        total = offset + t_new
        context, _ = self._attend(q, kv.k[:, :, :total], kv.v[:, :, :total])
        return self.w_o.forward(self._merge_heads(context))

    def backward(self, cache: tuple, dout: np.ndarray) -> np.ndarray:
        x, q, k, v, attention, merged = cache
        dcontext = self._split_heads(self.w_o.backward(merged, dout))

        dattention = dcontext @ v.transpose(0, 1, 3, 2)
        dv = attention.transpose(0, 1, 3, 2) @ dcontext

        # Softmax backward: dscore = att * (datt - sum(datt * att)).
        dscores = attention * (dattention - (dattention * attention).sum(axis=-1, keepdims=True))
        dscores = dscores * self.scale

        dq = dscores @ k
        dk = dscores.transpose(0, 1, 3, 2) @ q

        dx = self.w_q.backward(x, self._merge_heads(dq))
        dx = dx + self.w_k.backward(x, self._merge_heads(dk))
        dx = dx + self.w_v.backward(x, self._merge_heads(dv))
        return dx


class TransformerBlock(Layer):
    """Pre-norm transformer block: LN → attention → residual, LN → MLP → residual."""

    def __init__(self, dim: int, num_heads: int, hidden_dim: int, rng: np.random.Generator, *, name: str = "block"):
        self.ln_1 = LayerNorm(dim, name=f"{name}.ln_1")
        self.attention = CausalSelfAttention(dim, num_heads, rng, name=f"{name}.attn")
        self.ln_2 = LayerNorm(dim, name=f"{name}.ln_2")
        self.mlp = FeedForward(dim, hidden_dim, rng, name=f"{name}.mlp")

    def forward(self, x: np.ndarray) -> tuple:
        normed, ln_1 = self.ln_1.forward(x)
        attended, attention = self.attention.forward(normed)
        x = x + attended
        normed, ln_2 = self.ln_2.forward(x)
        mixed, mlp = self.mlp.forward(normed)
        return x + mixed, (ln_1, attention, ln_2, mlp)

    def forward_step(self, x: np.ndarray, kv, offset: int) -> np.ndarray:
        """Incremental forward against a :class:`repro.lm.decode.LayerKV` cache.

        LayerNorm and the MLP are position-wise, so only attention needs the
        cache; both normalisations see exactly the rows being decoded.
        """
        x = x + self.attention.forward_step(self.ln_1.forward(x)[0], kv, offset)
        x = x + self.mlp.forward(self.ln_2.forward(x)[0])[0]
        return x

    def backward(self, cache: tuple, dout: np.ndarray) -> np.ndarray:
        ln_1, attention, ln_2, mlp = cache
        dmlp = self.mlp.backward(mlp, dout)
        dx = dout + self.ln_2.backward(ln_2, dmlp)
        dattn = self.attention.backward(attention, dx)
        return dx + self.ln_1.backward(ln_1, dattn)
