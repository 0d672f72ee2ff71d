"""Word-level tokenizer for the driving-instruction language.

The paper fine-tunes Llama2-7B, whose tokenizer is subword BPE.  Our numpy
language model works over a closed, word-level vocabulary built from the
synthetic corpus — sufficient because every prompt and response in the domain
is built from the driving lexicon.  Unknown words map to ``<unk>``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.errors import TrainingError

#: Special tokens, in fixed id order.
PAD, BOS, EOS, UNK, NEWLINE = "<pad>", "<bos>", "<eos>", "<unk>", "<nl>"
SPECIAL_TOKENS: tuple = (PAD, BOS, EOS, UNK, NEWLINE)

_TOKEN_RE = re.compile(r"[a-z_']+|\d+|[.,:;!?\"()]")


def words_of(text: str) -> list:
    """Split text into word/punctuation tokens; newlines become ``<nl>``."""
    tokens: list[str] = []
    for line in text.lower().split("\n"):
        tokens.extend(_TOKEN_RE.findall(line))
        tokens.append(NEWLINE)
    if tokens and tokens[-1] == NEWLINE:
        tokens.pop()
    return tokens


@dataclass
class Tokenizer:
    """A fitted word-level tokenizer with a stable id assignment."""

    token_to_id: dict = field(default_factory=dict)
    id_to_token: list = field(default_factory=list)

    # ------------------------------------------------------------------ #
    @classmethod
    def fit(cls, texts) -> "Tokenizer":
        """Build a vocabulary from an iterable of texts."""
        vocabulary = list(SPECIAL_TOKENS)
        seen = set(vocabulary)
        for text in texts:
            for token in words_of(text):
                if token not in seen:
                    seen.add(token)
                    vocabulary.append(token)
        token_to_id = {token: idx for idx, token in enumerate(vocabulary)}
        return cls(token_to_id=token_to_id, id_to_token=vocabulary)

    # ------------------------------------------------------------------ #
    @property
    def vocab_size(self) -> int:
        return len(self.id_to_token)

    @property
    def pad_id(self) -> int:
        return self.token_to_id[PAD]

    @property
    def bos_id(self) -> int:
        return self.token_to_id[BOS]

    @property
    def eos_id(self) -> int:
        return self.token_to_id[EOS]

    @property
    def unk_id(self) -> int:
        return self.token_to_id[UNK]

    @property
    def newline_id(self) -> int:
        return self.token_to_id[NEWLINE]

    def encode(self, text: str, *, add_bos: bool = False, add_eos: bool = False) -> list:
        """Encode text to token ids (unknown words become ``<unk>``)."""
        if not self.token_to_id:
            raise TrainingError("tokenizer has not been fitted")
        ids = [self.token_to_id.get(token, self.unk_id) for token in words_of(text)]
        if add_bos:
            ids.insert(0, self.bos_id)
        if add_eos:
            ids.append(self.eos_id)
        return ids

    def decode(self, ids) -> str:
        """Decode ids back to text (joining words with spaces, ``<nl>`` as
        newline, other special tokens dropped)."""
        pieces = []
        for idx in ids:
            token = self.id_to_token[int(idx)] if 0 <= int(idx) < self.vocab_size else UNK
            if token == NEWLINE:
                pieces.append("\n")
                continue
            if token in SPECIAL_TOKENS:
                continue
            pieces.append(token)
        text = " ".join(pieces).replace(" \n ", "\n").replace(" \n", "\n").replace("\n ", "\n")
        # Re-attach punctuation for readability.
        text = re.sub(r"\s+([.,:;!?])", r"\1", text)
        return text
