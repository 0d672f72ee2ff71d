"""Tokenised preference datasets for DPO training.

Each :class:`~repro.feedback.ranker.PreferencePair` ``(x, y_w, y_l)`` becomes a
pair of token sequences (prompt + chosen, prompt + rejected) plus masks that
select the *response* target positions — DPO's log-probabilities are summed
only over the response tokens.

Encoded pairs also have a JSONL form, one :func:`encoded_pair_record` per
line: ``repro-serve --pairs-output`` writes it, and
:func:`read_encoded_pairs` loads it back without re-ranking or re-tokenising.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.errors import TrainingError
from repro.feedback.ranker import PreferencePair
from repro.lm.corpus import format_document
from repro.lm.tokenizer import Tokenizer


@dataclass
class EncodedPair:
    """Token ids and response masks for one preference pair."""

    chosen_ids: list
    rejected_ids: list
    chosen_response_start: int
    rejected_response_start: int
    task: str = ""


def encode_preference_pair(pair: PreferencePair, tokenizer: Tokenizer, *, max_seq_len: int = 96) -> EncodedPair:
    """Tokenise one preference pair (truncating over-long sequences).

    The single source of truth for pair encoding: :class:`DPODataset` and
    ``repro-serve --pairs-output`` both call it.
    """
    if not isinstance(pair, PreferencePair):
        raise TrainingError(f"expected PreferencePair, got {type(pair)!r}")
    prompt_ids = tokenizer.encode(pair.prompt, add_bos=True)
    chosen_ids = tokenizer.encode(format_document(pair.prompt, pair.chosen), add_bos=True, add_eos=True)
    rejected_ids = tokenizer.encode(format_document(pair.prompt, pair.rejected), add_bos=True, add_eos=True)
    return EncodedPair(
        chosen_ids=chosen_ids[:max_seq_len],
        rejected_ids=rejected_ids[:max_seq_len],
        chosen_response_start=min(len(prompt_ids), max_seq_len - 1),
        rejected_response_start=min(len(prompt_ids), max_seq_len - 1),
        task=pair.task,
    )


def encoded_pair_record(encoded: EncodedPair) -> dict:
    """JSON-friendly record of one encoded pair (one line of a pairs file)."""
    return {
        "task": encoded.task,
        "chosen_ids": list(encoded.chosen_ids),
        "rejected_ids": list(encoded.rejected_ids),
        "chosen_response_start": encoded.chosen_response_start,
        "rejected_response_start": encoded.rejected_response_start,
    }


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _token_ids(record: dict, key: str) -> list:
    """``record[key]`` if it is a list of at least two non-negative ints."""
    ids = record[key]
    if not isinstance(ids, list) or len(ids) < 2 or not all(_is_int(i) and i >= 0 for i in ids):
        raise ValueError(f"{key} must be a list of at least 2 non-negative ints")
    return ids


def _response_start(record: dict, key: str, ids: list) -> int:
    """``record[key]`` if it is an int indexing a target position of ``ids``."""
    start = record[key]
    if not _is_int(start) or not 0 <= start <= len(ids) - 1:
        raise ValueError(f"{key} must be an int in [0, {len(ids) - 1}]")
    return start


def read_encoded_pairs(path: str | Path) -> list:
    """Load the :class:`EncodedPair` list of a JSONL pairs file.

    A later process can rebuild a :class:`DPODataset` from the file (plus the
    tokenizer it was encoded with) without re-ranking or re-tokenising.  A
    malformed line raises ``ValueError`` naming the file and line: token ids
    must be lists of at least two non-negative ints, and each response start
    an int in ``[0, len(ids) - 1]``.  Ids beyond the model's vocabulary are
    caught when training starts
    (:meth:`repro.dpo.trainer.DPOTrainer.train`).
    """
    pairs = []
    with Path(path).open() as shard:  # line-by-line: pair files can exceed memory
        for line_number, line in enumerate(shard, start=1):
            line = line.strip()
            if not line:
                continue
            # Besides ValueError/KeyError/TypeError: nesting deeper than the
            # JSON parser's stack raises RecursionError, and an infinite float
            # where an int belongs raises OverflowError.
            try:
                record = json.loads(line)
                chosen_ids = _token_ids(record, "chosen_ids")
                rejected_ids = _token_ids(record, "rejected_ids")
                pairs.append(
                    EncodedPair(
                        chosen_ids=chosen_ids,
                        rejected_ids=rejected_ids,
                        chosen_response_start=_response_start(record, "chosen_response_start", chosen_ids),
                        rejected_response_start=_response_start(record, "rejected_response_start", rejected_ids),
                        task=record.get("task", ""),
                    )
                )
            except (ValueError, KeyError, TypeError, RecursionError, OverflowError) as exc:
                raise ValueError(
                    f"{path}:{line_number}: invalid encoded-pair record ({exc})"
                ) from exc
    return pairs


@dataclass
class DPODataset:
    """A tokenised preference dataset ready for mini-batching."""

    pairs: list = field(default_factory=list)          # list[EncodedPair]
    tokenizer: Tokenizer = None
    max_seq_len: int = 96

    def __len__(self) -> int:
        return len(self.pairs)

    # ------------------------------------------------------------------ #
    @classmethod
    def from_preference_pairs(
        cls,
        pairs,
        tokenizer: Tokenizer,
        *,
        max_seq_len: int = 96,
    ) -> "DPODataset":
        """Encode raw preference pairs (truncating over-long sequences)."""
        dataset = cls(pairs=[], tokenizer=tokenizer, max_seq_len=max_seq_len)
        for pair in pairs:
            dataset.append(pair)
        return dataset

    # ------------------------------------------------------------------ #
    def append(self, pair: PreferencePair) -> EncodedPair:
        """Encode one raw preference pair and append it."""
        encoded = encode_preference_pair(pair, self.tokenizer, max_seq_len=self.max_seq_len)
        self.pairs.append(encoded)
        return encoded

    # ------------------------------------------------------------------ #
    def _pad_batch(self, sequences: list, starts: list) -> tuple:
        """Pad sequences to a common length; build the response target mask."""
        pad_id = self.tokenizer.pad_id
        max_len = max(len(s) for s in sequences)
        tokens = np.full((len(sequences), max_len), pad_id, dtype=np.int64)
        mask = np.zeros((len(sequences), max_len - 1), dtype=np.float32)
        for row, (sequence, start) in enumerate(zip(sequences, starts)):
            tokens[row, : len(sequence)] = sequence
            # Target position j predicts tokens[j + 1]; response targets begin
            # at the first token after the prompt (and its newline separator).
            for j in range(start, len(sequence) - 1):
                mask[row, j] = 1.0
        return tokens, mask

    def batch(self, indices) -> dict:
        """Materialise one mini-batch over an explicit index selection.

        ``indices`` is any integer sequence; the returned dictionary has the
        same arrays :meth:`batches` yields.
        """
        index = np.asarray(list(indices), dtype=np.int64)
        chosen = [self.pairs[i].chosen_ids for i in index]
        rejected = [self.pairs[i].rejected_ids for i in index]
        chosen_starts = [self.pairs[i].chosen_response_start for i in index]
        rejected_starts = [self.pairs[i].rejected_response_start for i in index]
        chosen_tokens, chosen_mask = self._pad_batch(chosen, chosen_starts)
        rejected_tokens, rejected_mask = self._pad_batch(rejected, rejected_starts)
        return {
            "chosen_tokens": chosen_tokens,
            "chosen_mask": chosen_mask,
            "rejected_tokens": rejected_tokens,
            "rejected_mask": rejected_mask,
            "indices": index,
        }

    def batches(self, batch_size: int, *, rng: np.random.Generator | None = None, shuffle: bool = True):
        """Yield mini-batches as dictionaries of numpy arrays."""
        if not self.pairs:
            raise TrainingError("DPO dataset is empty")
        order = np.arange(len(self.pairs))
        if shuffle:
            if rng is None:
                raise TrainingError("shuffling requires an rng")
            order = rng.permutation(order)
        for start in range(0, len(order), batch_size):
            yield self.batch(order[start: start + batch_size])
