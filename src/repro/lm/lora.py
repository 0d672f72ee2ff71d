"""LoRA (low-rank adaptation) helpers — Appendix E of the paper.

Instead of updating a full weight matrix ``W ∈ R^{d×d}``, fine-tuning freezes
``W`` and updates two small matrices ``A ∈ R^{d×k}``, ``B ∈ R^{k×d}`` with
``k ≪ d``, using ``W + AB``.  :class:`~repro.lm.layers.Linear` implements the
adapters; this module provides the configuration object and the model-level
wrapper used by the DPO trainer.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.lm.transformer import TransformerLM


@dataclass(frozen=True)
class LoRAConfig:
    """LoRA hyper-parameters."""

    rank: int = 4
    seed: int = 0


def apply_lora(model: TransformerLM, config: LoRAConfig | None = None) -> dict:
    """Attach adapters to every linear layer of ``model`` and freeze its base.

    Returns a summary dictionary with parameter counts (useful for the
    efficiency ablation that mirrors the paper's memory argument).
    """
    config = config or LoRAConfig()
    total_before = model.num_parameters()
    trainable = model.add_lora_adapters(config.rank, seed=config.seed)
    return {
        "rank": config.rank,
        "total_parameters": model.num_parameters(),
        "base_parameters": total_before,
        "trainable_parameters": trainable,
        "trainable_fraction": trainable / max(model.num_parameters(), 1),
    }
