"""The language-model substrate: tokenizer, numpy transformer, LoRA, sampling."""

from repro.lm.corpus import Corpus, CorpusExample, build_corpus, format_document, format_prompt
from repro.lm.layers import (
    CausalSelfAttention,
    Embedding,
    FeedForward,
    Layer,
    LayerNorm,
    Linear,
    Parameter,
    TransformerBlock,
    softmax,
)
from repro.lm.decode import (
    DecodeState,
    LaneSpec,
    LayerKV,
    sample_response_frontier,
    sample_tokens_batched,
    sample_tokens_cached,
)
from repro.lm.lora import LoRAConfig, apply_lora
from repro.lm.optim import Adam
from repro.lm.pretrain import PretrainConfig, PretrainResult, encode_documents, pretrain
from repro.lm.sampling import (
    sample_from_logits,
    sample_response,
    sample_responses,
    sample_tokens,
    top_k_filter,
)
from repro.lm.tokenizer import SPECIAL_TOKENS, Tokenizer, words_of
from repro.lm.transformer import ModelConfig, TransformerLM

__all__ = [
    "Corpus",
    "CorpusExample",
    "build_corpus",
    "format_document",
    "format_prompt",
    "CausalSelfAttention",
    "Embedding",
    "FeedForward",
    "Layer",
    "LayerNorm",
    "Linear",
    "Parameter",
    "TransformerBlock",
    "softmax",
    "LoRAConfig",
    "apply_lora",
    "Adam",
    "PretrainConfig",
    "PretrainResult",
    "encode_documents",
    "pretrain",
    "DecodeState",
    "LaneSpec",
    "LayerKV",
    "sample_response_frontier",
    "sample_tokens_batched",
    "sample_tokens_cached",
    "sample_from_logits",
    "sample_response",
    "sample_responses",
    "sample_tokens",
    "top_k_filter",
    "SPECIAL_TOKENS",
    "Tokenizer",
    "words_of",
    "ModelConfig",
    "TransformerLM",
]
