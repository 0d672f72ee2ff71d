"""Paper-scale digests of seed 0: training on two processes stays bitwise.

The recipe is ``tests/integration/test_golden.py``'s, on
``paper_scale_config(0)``: sha256 digests of the preference pairs, the
before/after satisfied counts and the pretraining and DPO loss curves, plus
the after-fine-tuning satisfaction ratio.  The values were recorded on one
BLAS thread with ``PYTHONHASHSEED=0`` (``make slow`` pins both).
"""

import hashlib
import json

import pytest

from repro.core import DPOAFPipeline
from repro.core.config import paper_scale_config

SEED_0 = {
    "pairs": "8378a089a639a9e0",
    "counts": "6bd37ff7f5e00615",
    "pre": "2fc96f261274be38",
    "dpo": "bda133faf1bbf130",
    "after": 0.9214,
}


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()[:16]


@pytest.mark.slow
def test_paper_scale_seed_0_digests():
    with DPOAFPipeline(paper_scale_config(0)) as pipeline:
        result = pipeline.run()
    pairs = [(p.task, p.chosen, p.rejected, p.chosen_score, p.rejected_score) for p in result.preference_pairs]
    counts = [
        [(t.task, t.satisfied_counts) for t in evaluation.per_task]
        for evaluation in (result.before_evaluation, result.after_evaluation)
    ]
    actual = {
        "pairs": _digest(pairs),
        "counts": _digest(counts),
        "pre": _digest([float(v) for v in result.pretrain_result.losses]),
        "dpo": _digest([float(v) for v in result.dpo_result.history.losses]),
        "after": round(result.after_evaluation.satisfaction_ratio(), 4),
    }
    assert actual == SEED_0
