"""Saving and loading pipeline artifacts (model weights, tokenizer, metrics)."""

from __future__ import annotations

import io
import json
from pathlib import Path

import numpy as np

from repro.errors import TrainingError
from repro.lm.tokenizer import Tokenizer
from repro.lm.transformer import ModelConfig, TransformerLM
from repro.utils.atomic import write_bytes_atomic, write_text_atomic


def save_model(model: TransformerLM, tokenizer: Tokenizer, directory: str | Path) -> Path:
    """Persist weights (``.npz``), model config and tokenizer (``.json``).

    All three are serialised before the first write, so a save that fails
    while serialising leaves the previous checkpoint untouched.  Each file is
    then written atomically: a failure mid-write leaves every file complete,
    old or new, never truncated.
    """
    directory = Path(directory)
    weights = io.BytesIO()
    np.savez_compressed(weights, **model.state_dict())
    config = {
        "vocab_size": model.config.vocab_size,
        "max_seq_len": model.config.max_seq_len,
        "dim": model.config.dim,
        "num_heads": model.config.num_heads,
        "num_layers": model.config.num_layers,
        "hidden_dim": model.config.hidden_dim,
    }
    config_text = json.dumps(config, indent=2)
    tokenizer_text = json.dumps(tokenizer.to_dict(), indent=2)
    write_bytes_atomic(directory / "weights.npz", weights.getvalue())
    write_text_atomic(directory / "config.json", config_text)
    write_text_atomic(directory / "tokenizer.json", tokenizer_text)
    return directory


def load_model(directory: str | Path) -> tuple:
    """Load ``(model, tokenizer)`` previously written by :func:`save_model`.

    Note: LoRA adapters are merged or absent in saved checkpoints; a freshly
    loaded model has plain linear layers.
    """
    directory = Path(directory)
    config_path = directory / "config.json"
    weights_path = directory / "weights.npz"
    tokenizer_path = directory / "tokenizer.json"
    for path in (config_path, weights_path, tokenizer_path):
        if not path.exists():
            raise TrainingError(f"checkpoint file missing: {path}")
    config = ModelConfig(**json.loads(config_path.read_text()))
    model = TransformerLM(config, seed=0)
    with np.load(weights_path) as payload:
        state = {key: payload[key] for key in payload.files}
    # Saved checkpoints may include LoRA parameters; attach adapters on demand.
    if any(".lora_a" in key for key in state):
        rank = next(value.shape[1] for key, value in state.items() if key.endswith(".lora_a"))
        model.add_lora_adapters(int(rank))
    model.load_state_dict(state)
    tokenizer = Tokenizer.from_dict(json.loads(tokenizer_path.read_text()))
    return model, tokenizer
