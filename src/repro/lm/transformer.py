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
from repro.obs import tracer as obs
from repro.utils.rng import seeded_rng

#: Fixed cost of one length group, in cells (one row at one position).  On a
#: 2-core host with one BLAS thread, a paper-scale forward+backward costs about
#: 1 ms per call whatever its size, against 25–35 µs per cell, so a group
#: pays for itself once it saves about 30–50 cells.  Sweeping it over 0–96 on
#: paper-scale-shaped pretraining and DPO batches found 16–48 equally fast.
_GROUP_COST_CELLS = 48


def target_widths(mask: np.ndarray) -> np.ndarray:
    """Target columns each row needs: through its last masked one (0 if none)."""
    masked = np.asarray(mask) != 0
    return np.where(masked.any(axis=1), masked.shape[1] - np.argmax(masked[:, ::-1], axis=1), 0)


def plan_length_groups(widths) -> list:
    """Split a batch's rows into length groups: ``[(rows, width), ...]``.

    Rows of width 0 (no target) are dropped; the rest are stable-sorted by
    width and cut into contiguous runs minimising ``Σ rows × width +``
    :data:`_GROUP_COST_CELLS` per group, where a group's width is its widest
    row's.  Groups come narrowest first; the plan is a function of the widths
    alone.
    """
    widths = np.asarray(widths, dtype=np.int64)
    live = np.flatnonzero(widths > 0)
    order = live[np.argsort(widths[live], kind="stable")]
    sorted_widths = widths[order].tolist()
    # best[end]: cheapest plan of the first `end` sorted rows; start[end]: the
    # first row of its last group.  O(rows²), with rows <= a batch.
    best = [0]
    start = [0]
    for end, width in enumerate(sorted_widths, start=1):
        cost, first = min((best[i] + (end - i) * width, i) for i in range(end))
        best.append(cost + _GROUP_COST_CELLS)
        start.append(first)
    groups = []
    end = len(order)
    while end:
        groups.append((order[start[end]:end], sorted_widths[end - 1]))
        end = start[end]
    return groups[::-1]


def _target_index(targets: np.ndarray) -> tuple:
    """Index of every position's target in ``(batch, time, vocab)`` logits."""
    batch, time = targets.shape
    return np.arange(batch)[:, None], np.arange(time)[None, :], targets


def forward_groups(
    model, tokens: np.ndarray, mask: np.ndarray, groups, *, negate: bool, denom=None, shards=None
) -> tuple:
    """The group loop: run each ``(slot, rows, width)`` length group forward.

    Returns ``(values, kept)``: per group, the target log-probs times the
    group's mask (negated for a loss), shape ``(rows, width)``, and what
    :func:`backward_groups` reads.  With ``denom`` each group's cross-entropy
    backward follows its forward, so only one group's activations are held
    and nothing is kept.  ``shards`` is the training loop's
    :class:`repro.lm.shards.TrainingShards` (``None`` outside one): it names
    this process in each span's ``shard`` attribute.
    """
    shard = 0 if shards is None else shards.shard
    values, kept = [], []
    for slot, rows, width in groups:
        index = _target_index(tokens[rows, 1 : width + 1])
        group_mask = mask[rows, :width]
        with obs.span("train.forward", category="train", rows=len(rows), width=width, shard=shard):
            logits, cache = model.forward(tokens[rows, :width])
            probs = softmax(logits, axis=-1)
            log_probs = np.log(np.clip(probs[index], 1e-12, None))
            values.append(-log_probs * group_mask if negate else log_probs * group_mask)
        group = (slot, rows, width, index, group_mask, probs, cache)
        if denom is None:
            kept.append(group)
        else:
            _backward_group(model, group, denom, None, shards)
        # Free this group's activations before the next group's forward.
        del logits, probs, cache, group
    return values, kept


def backward_groups(model, kept: list, *, coefficients: np.ndarray, shards=None) -> None:
    """Backpropagate ``Σ c_row · log π(row)`` through :func:`forward_groups`' kept groups."""
    for group in kept:
        _backward_group(model, group, None, coefficients, shards)


def _backward_group(model, group: tuple, denom, coefficients, shards) -> None:
    """One group's backward: of its mean cross-entropy under ``denom``, else
    of its rows' log-probs times ``coefficients``; either way its ``probs``
    are consumed, becoming ``dlogits`` in place.  Outside a training loop the
    gradients go straight into ``Parameter.grad``; inside one, ``shards``
    keeps them in the group's own slab row."""
    slot, rows, width, index, group_mask, probs, cache = group
    shard = 0 if shards is None else shards.shard
    with obs.span("train.backward", category="train", rows=len(rows), width=width, shard=shard):
        if coefficients is None:
            dlogits = probs  # consumed: probs is not read again
            dlogits[index] -= 1.0
            dlogits *= (group_mask / denom)[..., None]
        else:
            # d log p(target) / d logits = onehot(target) - softmax(logits)
            dlogits = np.negative(probs, out=probs)  # consumed: probs is not read again
            dlogits[index] += 1.0
            dlogits *= np.asarray(group_mask, dtype=DTYPE)[..., None]
            dlogits *= coefficients[rows].reshape(-1, 1, 1)
        if shards is None:
            model.backward(cache, dlogits)
        else:
            shards.backward_into_slab(slot, cache, dlogits)


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

    # ------------------------------------------------------------------ #
    # Forward / backward
    # ------------------------------------------------------------------ #
    def forward(self, tokens: np.ndarray) -> tuple:
        """``(logits, cache)`` for input ids ``(batch, time)``.

        The logits have shape ``(batch, time, vocab)``; ``cache`` holds the
        activations :meth:`backward` reads, and nothing else keeps them.
        """
        tokens = np.asarray(tokens, dtype=np.int64)
        if tokens.ndim == 1:
            tokens = tokens[None, :]
        time = tokens.shape[1]
        if time > self.config.max_seq_len:
            raise TrainingError(f"sequence length {time} exceeds max_seq_len {self.config.max_seq_len}")
        x = self.token_embedding.forward(tokens)
        x += self.position_embedding.weight.value[:time]
        blocks = []
        for block in self.blocks:
            x, cache = block.forward(x)
            blocks.append(cache)
        x, ln_final = self.ln_final.forward(x)
        return self.head.forward(x), (tokens, blocks, ln_final, x)

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
        x = self.token_embedding.forward(tokens)
        x += self.position_embedding.weight.value[offset:offset + t_new]
        for block, kv in zip(self.blocks, state.layers):
            x = block.forward_step(x, kv, offset)
        state.length = offset + t_new
        x = self.ln_final.forward(x[:, -1:, :])[0]
        return self.head.forward(x)[:, 0, :]

    def backward(self, cache: tuple, dlogits: np.ndarray) -> None:
        """Backpropagate a gradient w.r.t. the logits of the forward that
        returned ``cache``, adding into every parameter's ``grad``."""
        self.token_embedding.backward(*self.backward_dense(cache, dlogits))

    def backward_dense(self, cache: tuple, dlogits: np.ndarray) -> tuple:
        """:meth:`backward` up to the token embedding: every gradient but that
        table's ``np.add.at`` scatter, whose inputs ``(tokens, dx)`` it returns.

        A scatter adds row by row, so a training step replays each group's
        in plan order rather than summing them (``repro.lm.shards``).
        """
        tokens, blocks, ln_final, x = cache
        dx = self.head.backward(x, dlogits)
        dx = self.ln_final.backward(ln_final, dx)
        for block, block_cache in zip(reversed(self.blocks), reversed(blocks)):
            dx = block.backward(block_cache, dx)
        # Every row sits at positions 0 .. time - 1, so the position table's
        # gradient is the batch sum (no scatter).
        if self.position_embedding.weight.trainable:
            self.position_embedding.weight.grad[: dx.shape[1]] += dx.sum(axis=0)
        return tokens, dx

    # ------------------------------------------------------------------ #
    # Losses and scoring
    # ------------------------------------------------------------------ #
    def cross_entropy(self, tokens: np.ndarray, *, pad_id: int, backward: bool = True, shards=None) -> float:
        """Next-token cross-entropy over a batch (positions with pad targets masked).

        Returns the mean loss over the batch's non-pad targets; when
        ``backward`` is True the corresponding gradients are accumulated into
        the parameters.  The rows run as length groups
        (:func:`plan_length_groups`), each at its own width; per-token losses
        are scattered back to the batch's width before the sum, so the loss
        is bitwise the full-width step's.  A training loop passes its
        :class:`repro.lm.shards.TrainingShards`, which splits the groups
        between two processes; the result is bitwise the same.
        """
        tokens = np.asarray(tokens, dtype=np.int64)
        mask = (tokens[:, 1:] != pad_id).astype(DTYPE)
        denom = DTYPE(max(mask.sum(), 1.0))
        groups = plan_length_groups(target_widths(mask))
        if shards is not None and backward:
            values = shards.run(tokens, mask, groups, negate=True, denom=denom)
        else:
            plan = [(slot, rows, width) for slot, (rows, width) in enumerate(groups)]
            values, _ = forward_groups(self, tokens, mask, plan, negate=True, denom=denom if backward else None)
        losses = np.zeros(mask.shape, dtype=DTYPE)
        for (rows, width), group_losses in zip(groups, values):
            losses[rows, :width] = group_losses
        return float(losses.sum() / denom)

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
        log_probs = np.log(np.clip(softmax(self.forward(tokens[:, :-1])[0], axis=-1), 1e-12, None))
        return log_probs[_target_index(tokens[:, 1:])]

    def sequence_log_probs(self, tokens: np.ndarray, response_mask: np.ndarray) -> np.ndarray:
        """``log π(y|x)`` per sequence: sum of target log-probs where the mask is 1.

        ``tokens`` has shape ``(batch, time)``; ``response_mask`` flags the
        *target* positions belonging to the response ``y`` (same shape as the
        targets, i.e. ``time - 1`` columns).  No gradients are accumulated.
        """
        return (self.token_log_probs(tokens) * response_mask).sum(axis=1)

    def sequence_log_probs_with_grad(self, tokens: np.ndarray, response_mask: np.ndarray, *, shards=None) -> tuple:
        """Like :meth:`sequence_log_probs` but also returns a backward closure.

        The closure takes per-sequence coefficients ``c`` (shape ``(batch,)``)
        and backpropagates ``sum_i c_i * log π(y_i|x_i)`` through the model.
        Every length group's forward runs here, because the coefficients
        depend on every row's log-prob; the closure runs their backwards from
        the caches those forwards returned, one per group.  With ``shards``
        (a training loop's :class:`repro.lm.shards.TrainingShards`) each
        process keeps the caches of its own groups.
        """
        tokens = np.asarray(tokens, dtype=np.int64)
        response_mask = np.asarray(response_mask)
        groups = plan_length_groups(target_widths(response_mask))
        if shards is None:
            plan = [(slot, rows, width) for slot, (rows, width) in enumerate(groups)]
            values, kept = forward_groups(self, tokens, response_mask, plan, negate=False)

            def backward_fn(coefficients: np.ndarray) -> None:
                backward_groups(self, kept, coefficients=np.asarray(coefficients, dtype=DTYPE))

        else:
            values = shards.run(tokens, response_mask, groups, negate=False)

            def backward_fn(coefficients: np.ndarray) -> None:
                shards.run_backward(np.asarray(coefficients, dtype=DTYPE))

        per_token = np.zeros(response_mask.shape, dtype=np.result_type(DTYPE, response_mask.dtype))
        for (rows, width), group_values in zip(groups, values):
            per_token[rows, :width] = group_values
        return per_token.sum(axis=1), backward_fn

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

    def add_lora_adapters(self, rank: int, *, seed: int = 0) -> int:
        """Attach LoRA adapters to every linear layer and freeze every base
        parameter; returns the trainable-parameter count."""
        rng = seeded_rng(seed)
        for layer in self.linear_layers():
            layer.add_lora(rank, rng)
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

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def num_trainable_parameters(self) -> int:
        return sum(p.size for p in self.parameters() if p.trainable)

    def clone(self) -> "TransformerLM":
        """Deep copy of the weights (used to snapshot the frozen reference
        model for DPO); a model holds no activations to copy."""
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
            # In place: during training the value is a view into memory
            # shared with the training worker.
            param.value[...] = value
            param.bump()
