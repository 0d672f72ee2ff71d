"""Kernel-stability probe: the numpy/BLAS behaviour the determinism contract
rests on, checked on the installed stack.

Batched decoding equals serial decoding, the reference memo equals the live
reference, and a length group's log-probs equal the full-width batch's only
because three kernel properties hold (``docs/lm.md``, "The determinism
contract").  They are facts about numpy's summation and the BLAS build, not
about this code, so a new numpy or OpenBLAS can break them without any test
of the pipeline failing loudly.  Each check here names the property that
broke and the BLAS it ran on.
"""

import numpy as np

from repro.lm import ModelConfig, TransformerLM
from repro.lm.layers import Linear, _length_stable_row_sum
from repro.utils.rng import seeded_rng


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()
    except Exception:  # a numpy without dict-mode show_config
        return "an unreported BLAS"


def _require(holds: bool, prop: str, detail: str) -> None:
    assert holds, (
        f"kernel property broken: {prop}. {detail}. "
        f"Host stack: NumPy {np.__version__}, BLAS {_blas()}. "
        "The determinism contract in docs/lm.md depends on it."
    )


def test_length_stable_row_sum_matches_the_128_column_sum_at_every_width():
    rng = np.random.default_rng(0)
    for width in range(1, 129):
        rows = rng.random((3, 4, width), dtype=np.float32)
        zeros = rng.integers(0, width + 1, size=rows.shape[:-1])
        rows[np.arange(width) >= (width - zeros)[..., None]] = 0.0
        reference = np.zeros(rows.shape[:-1] + (128,), dtype=np.float32)
        reference[..., :width] = rows
        _require(
            np.array_equal(_length_stable_row_sum(rows), reference.sum(axis=-1, keepdims=True)),
            "the length-stable row sum equals the fixed 128-column sum",
            f"It differs at width {width}",
        )


def test_linear_rows_do_not_depend_on_the_row_count():
    rng = np.random.default_rng(1)
    for out_features in (64, 40):  # a multiple of 16, and a padded vocab head
        layer = Linear(64, out_features, seeded_rng(2))
        x = rng.normal(size=(97, 64)).astype(np.float32)
        full = layer.forward(x)
        for rows in (1, 2, 3, 8, 17, 50):
            _require(
                np.array_equal(layer.forward(x[:rows]), full[:rows]),
                "Linear.forward rows are bitwise stable across row counts",
                f"A call on the first {rows} of 97 rows gives other bits (out_features={out_features})",
            )


def test_token_log_probs_of_a_row_do_not_depend_on_its_group():
    config = ModelConfig(vocab_size=50, max_seq_len=48, dim=32, num_heads=2, num_layers=2, hidden_dim=64)
    model = TransformerLM(config, seed=0)
    rng = np.random.default_rng(3)
    lengths = [9, 14, 23, 31, 47]
    tokens = np.zeros((len(lengths), 48), dtype=np.int64)
    for row, length in enumerate(lengths):
        tokens[row, :length] = rng.integers(1, config.vocab_size, size=length)
    full = model.token_log_probs(tokens)
    group = model.token_log_probs(tokens[1:4, : lengths[3]])
    for row, length in enumerate(lengths):
        alone = model.token_log_probs(tokens[row : row + 1, :length])[0]
        _require(
            np.array_equal(alone, full[row, : length - 1]),
            "token_log_probs of a row are the same alone and at full width",
            f"The row of length {length} differs",
        )
        if 1 <= row <= 3:
            _require(
                np.array_equal(group[row - 1, : length - 1], full[row, : length - 1]),
                "token_log_probs of a row are the same in a length group and at full width",
                f"The row of length {length} differs",
            )
