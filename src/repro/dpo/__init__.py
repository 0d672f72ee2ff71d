"""Direct preference optimization: dataset encoding, loss, trainer, metrics."""

from repro.dpo.dataset import (
    DPODataset,
    EncodedPair,
    encode_preference_pair,
    encoded_pair_record,
    read_encoded_pairs,
)
from repro.dpo.loss import DPOBatchMetrics, dpo_step, sigmoid, stack_pair_batch
from repro.dpo.metrics import MultiSeedCurves, TrainingHistory
from repro.dpo.trainer import DPOConfig, DPOResult, DPOTrainer, ReferenceMemo, run_dpo

__all__ = [
    "DPODataset",
    "EncodedPair",
    "encode_preference_pair",
    "encoded_pair_record",
    "read_encoded_pairs",
    "DPOBatchMetrics",
    "dpo_step",
    "sigmoid",
    "stack_pair_batch",
    "MultiSeedCurves",
    "TrainingHistory",
    "DPOConfig",
    "DPOResult",
    "DPOTrainer",
    "ReferenceMemo",
    "run_dpo",
]
