"""Batched autoregressive decoding with a per-layer KV cache.

The serial reference path (:func:`repro.lm.sampling.sample_tokens`) re-runs
the full transformer over the whole context for every decoded token of every
sequence — O(T²) work per sequence, one sequence at a time.  This module
decodes the entire sampling frontier at once:

* :class:`DecodeState` holds each block's cached key/value tensors plus the
  shared position offset, so a decode step runs the model over exactly one new
  token per lane (O(T) per step) — the cached-activation idiom the training
  layers already use for ``backward``, applied to generation.
* :func:`sample_tokens_batched` drives many (prompt, sample) lanes through one
  ``forward_step`` per decode step, retiring lanes as they emit a stop token
  without stalling the rest of the batch.

Determinism contract (property-tested; see ``docs/lm.md``): batched output is
**token-identical** to the serial path.  Three design rules make that true on
top of a BLAS that is only reproducible per-kernel:

1. Every lane draws from its own RNG stream, spawned per lane index
   (:func:`repro.utils.rng.spawn_lane_rngs`), so interleaving lanes cannot
   perturb any lane's randomness.
2. Lanes are grouped by prompt length and every lane in a group always has the
   same current length, so attention softmax rows are exact-length — row
   reductions over trailing padding are *not* bitwise-stable, so there is none.
3. All matmuls stay on gemm kernels whose rows are independent of batch size
   (``_rowsafe_matmul`` duplicates lone rows to keep them off the gemv path).

Once a lane's context reaches ``max_seq_len`` the absolute-position KV cache
can no longer represent it (the serial path re-encodes the trailing window at
positions ``0..max-1``), so the group falls back to batched full-window
forwards — still one model call for all surviving lanes per step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.lm.layers import DTYPE
from repro.lm.sampling import sample_from_logits
from repro.lm.tokenizer import Tokenizer
from repro.lm.transformer import ModelConfig, TransformerLM
from repro.obs import tracer as obs
from repro.utils.rng import seeded_rng, spawn_lane_rngs


@dataclass
class LayerKV:
    """One transformer block's cached keys and values.

    Both arrays are ``(lanes, heads, capacity, head_dim)``; positions
    ``0 .. DecodeState.length - 1`` are valid, the rest is scratch.  The
    trailing scratch never feeds a reduction: attention slices the cache to
    the exact current length before computing scores.
    """

    k: np.ndarray
    v: np.ndarray


class DecodeState:
    """Per-layer KV caches plus the shared position offset for a lane group.

    Invalidation rules:

    * The state is bound to one model's current weights — any parameter update
      (optimizer step, ``load_state_dict``) invalidates it;
      callers allocate a fresh state per sampling wave, never across training.
    * All lanes share one ``length``; uniform-length groups are what keep the
      attention softmax rows exact-length (see module docstring).
    * ``length`` may never exceed ``capacity`` (= ``max_seq_len``): absolute
      position embeddings make older cache entries unrepresentable once the
      window slides, so decoding falls back to full-window forwards instead.
    """

    def __init__(self, config: ModelConfig, batch: int):
        head_dim = config.dim // config.num_heads
        self.capacity = config.max_seq_len
        self.batch = batch
        self.length = 0
        self.layers = [
            LayerKV(
                k=np.zeros((batch, config.num_heads, self.capacity, head_dim), dtype=DTYPE),
                v=np.zeros((batch, config.num_heads, self.capacity, head_dim), dtype=DTYPE),
            )
            for _ in range(config.num_layers)
        ]

    @classmethod
    def for_model(cls, model: TransformerLM, batch: int) -> "DecodeState":
        """Allocate a state sized for ``model`` with ``batch`` lanes."""
        return cls(model.config, batch)

    def select(self, rows: list) -> None:
        """Keep only the given lane rows (in order) — used on lane retirement.

        Fancy indexing copies, so surviving lanes' cache bits are preserved
        exactly; dropping a finished lane can never perturb the others.
        """
        index = np.asarray(list(rows), dtype=np.int64)
        for kv in self.layers:
            kv.k = kv.k[index]
            kv.v = kv.v[index]
        self.batch = int(index.shape[0])


@dataclass(frozen=True)
class LaneSpec:
    """One independent (prompt, sample) decoding lane.

    ``rng`` must be the lane's *own* generator (spawned per lane index) —
    sharing a generator across lanes would make output depend on lane
    interleaving and break serial/batched token-identity.
    """

    prompt_ids: tuple
    rng: np.random.Generator
    max_new_tokens: int = 64
    temperature: float = 1.0
    top_k: int | None = None
    stop_ids: tuple = ()


def sample_tokens_batched(model: TransformerLM, lanes: list) -> list:
    """Decode every :class:`LaneSpec` lane; returns new token ids per lane.

    Lanes are grouped by prompt length (uniform in-group length is part of the
    determinism contract) and each group decodes with one KV-cached
    ``forward_step`` per step across all its live lanes.  Output order matches
    input order, and each lane's tokens are identical to what
    :func:`repro.lm.sampling.sample_tokens` produces for the same prompt,
    parameters and RNG stream — however many other lanes ride along.
    """
    results: list = [None] * len(lanes)
    groups: dict = {}
    for index, lane in enumerate(lanes):
        groups.setdefault(len(lane.prompt_ids), []).append(index)
    for prompt_len in sorted(groups):
        members = groups[prompt_len]
        for index, generated in zip(members, _decode_group(model, [lanes[i] for i in members])):
            results[index] = generated
    return results


def sample_tokens_cached(
    model: TransformerLM,
    prompt_ids: list,
    *,
    max_new_tokens: int = 64,
    temperature: float = 1.0,
    top_k: int | None = None,
    stop_ids: tuple = (),
    seed: int | np.random.Generator | None = None,
) -> list:
    """KV-cached drop-in for :func:`repro.lm.sampling.sample_tokens`.

    Same signature, token-identical output, O(T) per decode step instead of a
    full-context forward per token.
    """
    lane = LaneSpec(
        prompt_ids=tuple(int(t) for t in prompt_ids),
        rng=seeded_rng(seed),
        max_new_tokens=max_new_tokens,
        temperature=temperature,
        top_k=top_k,
        stop_ids=tuple(stop_ids),
    )
    return sample_tokens_batched(model, [lane])[0]


def _decode_group(model: TransformerLM, lanes: list) -> list:
    """Decode one uniform-prompt-length group of lanes together."""
    results: list = [[] for _ in lanes]
    # Zero-budget lanes retire before drawing anything (the serial path never
    # enters its loop for them, so they must not consume RNG or a forward).
    originals = [i for i, lane in enumerate(lanes) if lane.max_new_tokens > 0]
    if not originals:
        return results
    lanes = [lanes[i] for i in originals]
    generated: list = [results[i] for i in originals]
    max_context = model.config.max_seq_len
    prompt_len = len(lanes[0].prompt_ids)
    ids = [list(lane.prompt_ids) for lane in lanes]
    live = list(range(len(lanes)))

    with obs.span(
        "lm.batch_wave", category="lm", lanes=len(lanes), prompt_tokens=prompt_len
    ):
        # Prefill: one batched causal forward over the prompts fills the KV
        # caches and yields the first next-token logits.  Prompts longer than
        # the context window start directly in full-window mode, exactly like
        # the serial path's trailing-window re-encode.
        if prompt_len <= max_context:
            state = DecodeState.for_model(model, len(lanes))
            with obs.span("lm.decode_step", category="lm", lanes=len(live), prefill=True):
                logits = model.forward_step(
                    np.asarray([lane.prompt_ids for lane in lanes], dtype=np.int64), state
                )
        else:
            state = None
            with obs.span("lm.decode_step", category="lm", lanes=len(live), prefill=True):
                windows = np.asarray([lane.prompt_ids[-max_context:] for lane in lanes], dtype=np.int64)
                logits = model.forward(windows)[0][:, -1, :]

        while True:
            finished = set()
            for row, lane_index in enumerate(live):
                lane = lanes[lane_index]
                next_id = sample_from_logits(
                    logits[row], lane.rng, temperature=lane.temperature, top_k=lane.top_k
                )
                ids[lane_index].append(next_id)
                generated[lane_index].append(next_id)
                if next_id in lane.stop_ids or len(generated[lane_index]) >= lane.max_new_tokens:
                    finished.add(row)
            if finished:
                keep = [row for row in range(len(live)) if row not in finished]
                live = [live[row] for row in keep]
                if not live:
                    break
                if state is not None:
                    state.select(keep)
            # The KV cache is valid while the next token's absolute position
            # fits the window; past that, batch full forwards over each lane's
            # trailing max_seq_len tokens (positions re-encoded from 0, exactly
            # as the serial path does).
            if state is not None and state.length >= max_context:
                state = None
            with obs.span("lm.decode_step", category="lm", lanes=len(live)):
                if state is not None:
                    step_tokens = np.asarray([[ids[i][-1]] for i in live], dtype=np.int64)
                    logits = model.forward_step(step_tokens, state)
                else:
                    windows = np.asarray([ids[i][-max_context:] for i in live], dtype=np.int64)
                    logits = model.forward(windows)[0][:, -1, :]

    return results


def sample_response_frontier(
    model: TransformerLM,
    tokenizer: Tokenizer,
    prompts: list,
    counts: list,
    *,
    temperature: float = 0.9,
    top_k: int | None = 20,
    max_new_tokens: int = 72,
    rng: int | np.random.Generator | None = None,
) -> list:
    """Sample ``counts[i]`` responses for every ``prompts[i]`` in one wave.

    This is the pipeline producer's whole sampling frontier (m responses × N
    tasks) as one lane set: per prompt, per-lane RNG streams are spawned in
    the same order the serial path would (:func:`spawn_lane_rngs` per prompt,
    in prompt order), so each response's text is identical to serial
    ``sample_responses`` with the same ``rng``.  Returns one list of decoded
    responses per prompt, in order.
    """
    if len(prompts) != len(counts):
        raise ValueError(f"got {len(prompts)} prompts but {len(counts)} counts")
    # Normalise once: every prompt spawns its lane family from the SAME live
    # generator, in prompt order — the exact spawn sequence the serial path
    # performs when sample_responses is called once per prompt.
    rng = seeded_rng(rng)
    lanes: list = []
    spans: list = []
    for prompt, count in zip(prompts, counts):
        prompt_ids = tuple(tokenizer.encode(prompt, add_bos=True))
        start = len(lanes)
        for lane_rng in spawn_lane_rngs(rng, count):
            lanes.append(
                LaneSpec(
                    prompt_ids=prompt_ids,
                    rng=lane_rng,
                    max_new_tokens=max_new_tokens,
                    temperature=temperature,
                    top_k=top_k,
                    stop_ids=(tokenizer.eos_id,),
                )
            )
        spans.append((start, len(lanes)))
    generated = sample_tokens_batched(model, lanes)
    responses: list = []
    for start, stop in spans:
        batch = []
        for tokens in generated[start:stop]:
            if tokens and tokens[-1] == tokenizer.eos_id:
                tokens = tokens[:-1]
            batch.append(tokenizer.decode(tokens))
        responses.append(batch)
    return responses
