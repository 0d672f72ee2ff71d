"""Autoregressive sampling from the numpy language model.

This module holds the *serial* reference path (one sequence, one full-context
forward per token) plus the draw helpers shared with the batched KV-cached
decoder in :mod:`repro.lm.decode`.  The sharing is the determinism contract:
``sample_from_logits`` is the only place temperature / top-k / the categorical
draw happen, and per-sample RNG streams are spawned per lane (``spawn_lane_rngs``),
so the batched path produces token-identical output however lanes are
interleaved.  See ``docs/lm.md``.
"""

from __future__ import annotations

import numpy as np

from repro.lm.layers import softmax
from repro.lm.tokenizer import Tokenizer
from repro.lm.transformer import TransformerLM
from repro.utils.rng import seeded_rng, spawn_lane_rngs


def top_k_filter(scaled: np.ndarray, top_k: int) -> np.ndarray:
    """Keep exactly the ``top_k`` largest logits; everything else gets ``-1e30``.

    Selection runs through :func:`np.partition` (O(V) instead of a full sort),
    and the kept set is exactly ``top_k`` entries: values strictly above the
    cutoff always survive, and ties *at* the cutoff survive lowest-index first
    until the budget is filled.  (The previous implementation kept every tie,
    so more than ``top_k`` tokens could stay alive.)
    """
    cutoff = np.partition(scaled, -top_k)[-top_k]
    keep = scaled > cutoff
    short = top_k - int(np.count_nonzero(keep))
    if short > 0:
        keep[np.flatnonzero(scaled == cutoff)[:short]] = True
    return np.where(keep, scaled, -1e30)


def sample_from_logits(
    logits: np.ndarray,
    rng: np.random.Generator,
    *,
    temperature: float,
    top_k: int | None,
) -> int:
    """Draw one token id from a 1-D logits row.

    This helper is the single draw path shared by :func:`sample_tokens` and the
    batched decoder: identical logits bits + an identical generator state give
    an identical token on either path.
    """
    if temperature <= 0:
        return int(np.argmax(logits))
    scaled = logits / temperature
    if top_k is not None and 0 < top_k < scaled.shape[0]:
        scaled = top_k_filter(scaled, top_k)
    probabilities = softmax(scaled)
    return int(rng.choice(len(probabilities), p=probabilities))


def sample_tokens(
    model: TransformerLM,
    prompt_ids: list,
    *,
    max_new_tokens: int = 64,
    temperature: float = 1.0,
    top_k: int | None = None,
    stop_ids: tuple = (),
    seed: int | np.random.Generator | None = None,
) -> list:
    """Sample a continuation of ``prompt_ids``; returns only the new token ids.

    This is the serial reference path: every step re-runs the full forward over
    the trailing ``max_seq_len`` window.  ``repro.lm.decode.sample_tokens_cached``
    produces token-identical output in O(T) per step.
    """
    rng = seeded_rng(seed)
    ids = list(prompt_ids)
    generated: list[int] = []
    max_context = model.config.max_seq_len
    for _ in range(max_new_tokens):
        context = ids[-max_context:]
        logits = model.forward(np.asarray([context], dtype=np.int64))[0][0, -1]
        next_id = sample_from_logits(logits, rng, temperature=temperature, top_k=top_k)
        ids.append(next_id)
        generated.append(next_id)
        if next_id in stop_ids:
            break
    return generated


def sample_response(
    model: TransformerLM,
    tokenizer: Tokenizer,
    prompt: str,
    *,
    max_new_tokens: int = 72,
    temperature: float = 0.9,
    top_k: int | None = 20,
    seed: int | np.random.Generator | None = None,
) -> str:
    """Sample a textual response for a textual prompt (stops at ``<eos>``)."""
    prompt_ids = tokenizer.encode(prompt, add_bos=True)
    generated = sample_tokens(
        model,
        prompt_ids,
        max_new_tokens=max_new_tokens,
        temperature=temperature,
        top_k=top_k,
        stop_ids=(tokenizer.eos_id,),
        seed=seed,
    )
    if generated and generated[-1] == tokenizer.eos_id:
        generated = generated[:-1]
    return tokenizer.decode(generated)


def sample_responses(
    model: TransformerLM,
    tokenizer: Tokenizer,
    prompt: str,
    num_samples: int,
    *,
    temperature: float = 0.9,
    top_k: int | None = 20,
    max_new_tokens: int = 72,
    seed: int | np.random.Generator | None = None,
) -> list:
    """Draw several independent responses for the same prompt.

    Sample ``i`` consumes the ``i``-th child stream of ``seed`` (see
    :func:`repro.utils.rng.spawn_lane_rngs`), never a shared sequential
    stream — which is what lets ``repro.lm.decode`` interleave the same lanes
    in one batched wave and still emit identical text per sample.
    """
    return [
        sample_response(
            model,
            tokenizer,
            prompt,
            max_new_tokens=max_new_tokens,
            temperature=temperature,
            top_k=top_k,
            seed=lane_rng,
        )
        for lane_rng in spawn_lane_rngs(seed, num_samples)
    ]
