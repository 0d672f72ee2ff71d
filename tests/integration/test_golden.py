"""Golden digests of the quick pipeline: the determinism contract, pinned.

Every output of ``DPOAFPipeline.run`` is meant to be bitwise-reproducible
from its seed (docs/pipeline.md). A refactor that claims "same outputs"
must leave these digests alone; a deliberate numeric change updates them
and records the old and new digests in CHANGES.md.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import DPOAFPipeline
from repro.core.config import quick_pipeline_config

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "lm"))
from test_kernel_stability import _blas  # noqa: E402  (tests/ has no packages)

# seed -> (pairs, counts, pre, dpo, pair count)
GOLDEN = {
    0: ("c668e02418eb45e4", "9bb7b84ef80ee605", "1b8adcb06f3cec5f", "84c55d0f0b417dbf", 60),
    1: ("85d0b67041dea64f", "6984c4ab7b91cbc7", "ecb6d713ce9e6dd7", "bdc988404814c3e5", 55),
    2: ("c82c608b90861934", "28015c4aec14747b", "f9f4f553c6c93471", "49b33985e3ea93ec", 58),
}


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()[:16]


def run_digests(seed: int) -> dict:
    """The four pinned digests of one quick pipeline run, plus its pair count."""
    with DPOAFPipeline(quick_pipeline_config(seed)) as pipeline:
        result = pipeline.run()
    pairs = [(p.task, p.chosen, p.rejected, p.chosen_score, p.rejected_score) for p in result.preference_pairs]
    counts = [
        [(t.task, t.satisfied_counts) for t in evaluation.per_task]
        for evaluation in (result.before_evaluation, result.after_evaluation)
    ]
    return {
        "pairs": _digest(pairs),
        "counts": _digest(counts),
        "pre": _digest([float(v) for v in result.pretrain_result.losses]),
        "dpo": _digest([float(v) for v in result.dpo_result.history.losses]),
        "pair count": len(pairs),
    }


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_quick_pipeline_outputs_match_golden_digests(seed):
    expected = dict(zip(("pairs", "counts", "pre", "dpo", "pair count"), GOLDEN[seed]))
    actual = run_digests(seed)
    changed = [name for name in expected if actual[name] != expected[name]]
    assert not changed, (
        f"seed {seed}: golden output changed: {', '.join(changed)} "
        f"(expected {[expected[n] for n in changed]}, got {[actual[n] for n in changed]}). "
        f"Host stack: NumPy {np.__version__}, BLAS {_blas()}. "
        "A refactor must keep these bitwise; a deliberate numeric change "
        "updates the digests here and records the old and new values in CHANGES.md."
    )
