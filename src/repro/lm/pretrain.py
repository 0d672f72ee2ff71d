"""Causal-language-model pre-training on the synthetic corpus."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import TrainingError
from repro.lm.corpus import Corpus
from repro.lm.optim import Adam
from repro.lm.shards import TrainingShards
from repro.lm.tokenizer import Tokenizer
from repro.lm.transformer import ModelConfig, TransformerLM
from repro.obs import tracer as obs
from repro.utils.rng import seeded_rng

#: Adam learning rate of every pre-training run.
LEARNING_RATE = 3e-3


@dataclass(frozen=True)
class PretrainConfig:
    """Hyper-parameters for the pre-training loop."""

    num_steps: int = 400
    batch_size: int = 16
    dim: int = 64
    num_heads: int = 4
    num_layers: int = 2
    hidden_dim: int = 128
    seed: int = 0


@dataclass
class PretrainResult:
    """Artifacts of pre-training: the model, tokenizer and loss curve."""

    model: TransformerLM
    tokenizer: Tokenizer
    losses: list = field(default_factory=list)


def encode_documents(corpus: Corpus, max_seq_len: int) -> np.ndarray:
    """Encode every document to a fixed-length id matrix (padded / truncated)."""
    tokenizer = corpus.tokenizer
    rows = []
    for document in corpus.documents:
        ids = tokenizer.encode(document, add_bos=True, add_eos=True)[:max_seq_len]
        ids = ids + [tokenizer.pad_id] * (max_seq_len - len(ids))
        rows.append(ids)
    if not rows:
        raise TrainingError("corpus is empty; nothing to pre-train on")
    return np.asarray(rows, dtype=np.int64)


def pretrain(corpus: Corpus, config: PretrainConfig | None = None) -> PretrainResult:
    """Train a fresh :class:`TransformerLM` on the corpus with Adam.

    Each step samples ``batch_size`` documents;
    :meth:`TransformerLM.cross_entropy` runs them as length groups, so no
    step computes the pad past a document's end, split between this process
    and one worker (:class:`repro.lm.shards.TrainingShards`) that lives as
    long as this call.  Returns the trained model, its tokenizer and the
    per-step loss curve.
    """
    config = config or PretrainConfig()
    rng = seeded_rng(config.seed)
    pad_id = corpus.tokenizer.pad_id
    model = TransformerLM(
        ModelConfig(
            vocab_size=corpus.tokenizer.vocab_size,
            dim=config.dim,
            num_heads=config.num_heads,
            num_layers=config.num_layers,
            hidden_dim=config.hidden_dim,
        ),
        seed=config.seed,
    )
    data = encode_documents(corpus, model.config.max_seq_len)
    optimizer = Adam(model.parameters(), learning_rate=LEARNING_RATE)

    losses: list[float] = []
    num_documents = data.shape[0]
    batch_size = min(config.batch_size, num_documents)
    with TrainingShards(model, max_groups=batch_size) as shards:
        for step in range(config.num_steps):
            batch_idx = rng.integers(0, num_documents, size=batch_size)
            with obs.span("pretrain.step", category="train", step=step + 1):
                optimizer.zero_grad()
                loss = model.cross_entropy(data[batch_idx], pad_id=pad_id, backward=True, shards=shards)
                with obs.span("optim.step", category="train"):
                    optimizer.step()
            losses.append(loss)

    return PretrainResult(model=model, tokenizer=corpus.tokenizer, losses=losses)
