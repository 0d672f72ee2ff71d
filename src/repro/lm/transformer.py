"""A small GPT-style causal language model in pure numpy.

This is the "pre-trained language model" substrate of the reproduction: it
supplies everything DPO-AF needs from Llama2-7B — conditional sampling of
step-by-step responses, per-token log-probabilities, and parameter-efficient
(LoRA) fine-tuning — at a scale a CPU can train in seconds.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from repro.errors import TrainingError
from repro.lm.layers import DTYPE, Embedding, Layer, LayerNorm, Linear, TransformerBlock, softmax
from repro.utils.rng import seeded_rng


@dataclass(frozen=True)
class ModelConfig:
    """Hyper-parameters of the numpy language model."""

    vocab_size: int
    max_seq_len: int = 96
    dim: int = 64
    num_heads: int = 4
    num_layers: int = 2
    hidden_dim: int = 128

    def __post_init__(self) -> None:
        if self.vocab_size <= 0:
            raise TrainingError(f"vocab_size must be positive, got {self.vocab_size}")
        if self.dim % self.num_heads != 0:
            raise TrainingError(f"dim {self.dim} not divisible by num_heads {self.num_heads}")


class TransformerLM(Layer):
    """Decoder-only transformer language model with explicit backprop."""

    def __init__(self, config: ModelConfig, seed: int | np.random.Generator | None = 0):
        rng = seeded_rng(seed)
        self.config = config
        self.token_embedding = Embedding(config.vocab_size, config.dim, rng, name="tok_emb")
        self.position_embedding = Embedding(config.max_seq_len, config.dim, rng, name="pos_emb")
        self.blocks = [
            TransformerBlock(config.dim, config.num_heads, config.hidden_dim, rng, name=f"block_{i}")
            for i in range(config.num_layers)
        ]
        self.ln_final = LayerNorm(config.dim, name="ln_final")
        self.head = Linear(config.dim, config.vocab_size, rng, bias=False, name="head")
        self._cache_tokens: np.ndarray | None = None

    # ------------------------------------------------------------------ #
    # Forward / backward
    # ------------------------------------------------------------------ #
    def forward(self, tokens: np.ndarray) -> np.ndarray:
        """Logits of shape ``(batch, time, vocab)`` for input ids ``(batch, time)``."""
        tokens = np.asarray(tokens, dtype=np.int64)
        if tokens.ndim == 1:
            tokens = tokens[None, :]
        batch, time = tokens.shape
        if time > self.config.max_seq_len:
            raise TrainingError(f"sequence length {time} exceeds max_seq_len {self.config.max_seq_len}")
        self._cache_tokens = tokens
        positions = np.broadcast_to(np.arange(time), (batch, time))
        x = self.token_embedding.forward(tokens) + self.position_embedding.forward(positions)
        for block in self.blocks:
            x = block.forward(x)
        x = self.ln_final.forward(x)
        return self.head.forward(x)

    def forward_step(self, tokens: np.ndarray, state) -> np.ndarray:
        """Incremental forward for decoding: extend ``state`` and return logits.

        ``tokens`` is ``(batch, t_new)`` (or 1-D for a single lane) holding the
        *new* tokens only; ``state`` is a :class:`repro.lm.decode.DecodeState`
        whose per-layer K/V caches already cover positions
        ``0 .. state.length - 1``.  The new tokens are embedded at absolute
        positions ``state.length ..``, attended against the cache, and the
        caches and ``state.length`` are advanced in place.  Returns logits of
        shape ``(batch, vocab)`` for the **last** new position of each lane —
        the final LayerNorm and head are position-wise, so they are applied to
        that row only, skipping the vocab-sized matmul over the prefix.

        Because absolute position embeddings cap the context, the extended
        length must stay within ``max_seq_len``; callers fall back to
        full-window forwards past that point (see ``repro.lm.decode``).
        No backward caches survive; never interleave with training passes.
        """
        tokens = np.asarray(tokens, dtype=np.int64)
        if tokens.ndim == 1:
            tokens = tokens[None, :]
        batch, t_new = tokens.shape
        if t_new == 0:
            raise TrainingError("forward_step needs at least one new token")
        if state.batch != batch:
            raise TrainingError(f"decode state holds {state.batch} lanes, got a batch of {batch}")
        offset = state.length
        if offset + t_new > self.config.max_seq_len:
            raise TrainingError(
                f"decode length {offset + t_new} exceeds max_seq_len {self.config.max_seq_len}"
            )
        positions = np.broadcast_to(np.arange(offset, offset + t_new), (batch, t_new))
        x = self.token_embedding.forward(tokens) + self.position_embedding.forward(positions)
        for block, kv in zip(self.blocks, state.layers):
            x = block.forward_step(x, kv, offset)
        state.length = offset + t_new
        x = self.ln_final.forward(x[:, -1:, :])
        return self.head.forward(x)[:, 0, :]

    def backward(self, dlogits: np.ndarray) -> None:
        """Backpropagate a gradient w.r.t. the logits through the whole model."""
        dx = self.head.backward(dlogits)
        dx = self.ln_final.backward(dx)
        for block in reversed(self.blocks):
            dx = block.backward(dx)
        self.token_embedding.backward(dx)
        self.position_embedding.backward(dx)

    # ------------------------------------------------------------------ #
    # Losses and scoring
    # ------------------------------------------------------------------ #
    def cross_entropy(self, tokens: np.ndarray, *, pad_id: int, backward: bool = True) -> float:
        """Next-token cross-entropy over a batch (positions with pad targets masked).

        Returns the mean loss; when ``backward`` is True the corresponding
        gradients are accumulated into the parameters.
        """
        tokens = np.asarray(tokens, dtype=np.int64)
        logits = self.forward(tokens[:, :-1])
        targets = tokens[:, 1:]
        mask = (targets != pad_id).astype(DTYPE)
        probs = softmax(logits, axis=-1)
        batch, time = targets.shape
        target_probs = probs[np.arange(batch)[:, None], np.arange(time)[None, :], targets]
        losses = -np.log(np.clip(target_probs, 1e-12, None)) * mask
        denom = max(mask.sum(), 1.0)
        loss = float(losses.sum() / denom)

        if backward:
            dlogits = probs.copy()
            dlogits[np.arange(batch)[:, None], np.arange(time)[None, :], targets] -= 1.0
            dlogits *= (mask / DTYPE(denom))[..., None]
            self.backward(dlogits)
        return loss

    def token_log_probs(self, tokens: np.ndarray) -> np.ndarray:
        """Per-token target log-probs ``log π(tokens[:, j + 1] | tokens[:, :j + 1])``.

        Returns shape ``(batch, time - 1)``; no gradients are accumulated.
        Attention is causal and every kernel is row-stable (see
        ``docs/lm.md``), so entry ``j`` of a row carries the same bits however
        wide the batch is, whatever follows position ``j + 1`` and whatever
        the other rows hold — which is what lets
        :class:`repro.dpo.trainer.ReferenceMemo` store these values once.
        """
        tokens = np.asarray(tokens, dtype=np.int64)
        logits = self.forward(tokens[:, :-1])
        targets = tokens[:, 1:]
        log_probs = np.log(np.clip(softmax(logits, axis=-1), 1e-12, None))
        batch, time = targets.shape
        return log_probs[np.arange(batch)[:, None], np.arange(time)[None, :], targets]

    def sequence_log_probs(self, tokens: np.ndarray, response_mask: np.ndarray) -> np.ndarray:
        """``log π(y|x)`` per sequence: sum of target log-probs where the mask is 1.

        ``tokens`` has shape ``(batch, time)``; ``response_mask`` flags the
        *target* positions belonging to the response ``y`` (same shape as the
        targets, i.e. ``time - 1`` columns).  No gradients are accumulated.
        """
        return (self.token_log_probs(tokens) * response_mask).sum(axis=1)

    def sequence_log_probs_with_grad(self, tokens: np.ndarray, response_mask: np.ndarray) -> tuple:
        """Like :meth:`sequence_log_probs` but also returns a backward closure.

        The closure takes per-sequence coefficients ``c`` (shape ``(batch,)``)
        and backpropagates ``sum_i c_i * log π(y_i|x_i)`` through the model.
        """
        tokens = np.asarray(tokens, dtype=np.int64)
        logits = self.forward(tokens[:, :-1])
        targets = tokens[:, 1:]
        probs = softmax(logits, axis=-1)
        batch, time = targets.shape
        per_token = np.log(np.clip(probs[np.arange(batch)[:, None], np.arange(time)[None, :], targets], 1e-12, None))
        log_probs = (per_token * response_mask).sum(axis=1)

        def backward_fn(coefficients: np.ndarray) -> None:
            coefficients = np.asarray(coefficients, dtype=DTYPE).reshape(batch, 1, 1)
            # d log p(target) / d logits = onehot(target) - softmax(logits)
            dlogits = -probs.copy()
            dlogits[np.arange(batch)[:, None], np.arange(time)[None, :], targets] += 1.0
            dlogits *= np.asarray(response_mask, dtype=DTYPE)[..., None]
            dlogits *= coefficients
            self.backward(dlogits)

        return log_probs, backward_fn

    # ------------------------------------------------------------------ #
    # LoRA management and cloning
    # ------------------------------------------------------------------ #
    def linear_layers(self) -> list:
        """Every :class:`Linear` in the model (attention projections, MLP, head)."""
        layers: list[Linear] = []
        for block in self.blocks:
            layers.extend([block.attention.w_q, block.attention.w_k, block.attention.w_v, block.attention.w_o])
            layers.extend([block.mlp.fc_in, block.mlp.fc_out])
        layers.append(self.head)
        return layers

    def add_lora_adapters(self, rank: int, *, alpha: float | None = None, seed: int = 0, freeze_base: bool = True) -> int:
        """Attach LoRA adapters to every linear layer; returns trainable-parameter count."""
        rng = seeded_rng(seed)
        for layer in self.linear_layers():
            layer.add_lora(rank, rng, alpha=alpha, freeze_base=freeze_base)
        if freeze_base:
            self.token_embedding.weight.trainable = False
            self.position_embedding.weight.trainable = False
            for block in self.blocks:
                block.ln_1.gain.trainable = False
                block.ln_1.shift.trainable = False
                block.ln_2.gain.trainable = False
                block.ln_2.shift.trainable = False
            self.ln_final.gain.trainable = False
            self.ln_final.shift.trainable = False
        return self.num_trainable_parameters()

    def merge_lora(self) -> None:
        """Fold every adapter into its base weight (for cheap inference)."""
        for layer in self.linear_layers():
            layer.merge_lora()

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def num_trainable_parameters(self) -> int:
        return sum(p.size for p in self.parameters() if p.trainable)

    def clone(self) -> "TransformerLM":
        """Deep copy (used to snapshot the frozen reference model for DPO)."""
        return copy.deepcopy(self)

    # ------------------------------------------------------------------ #
    # (De)serialisation of weights
    # ------------------------------------------------------------------ #
    def state_dict(self) -> dict:
        return {p.name: p.value.copy() for p in self.parameters()}

    def load_state_dict(self, state: dict) -> None:
        own = {p.name: p for p in self.parameters()}
        missing = set(own) - set(state)
        if missing:
            raise TrainingError(f"state dict is missing parameters: {sorted(missing)[:5]} ...")
        for name, param in own.items():
            value = np.asarray(state[name], dtype=DTYPE)
            if value.shape != param.value.shape:
                raise TrainingError(f"shape mismatch for {name}: {value.shape} vs {param.value.shape}")
            param.value = value.copy()
            param.bump()
