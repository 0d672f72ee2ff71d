"""Seeded random-text fuzz of GLM→FSA alignment and parsing.

A generator builds texts from the pieces the aligner reacts to: phrases of
both lexicons, the negation and observation cues, ``if``/``when``/``then``,
``and``/``or``, commas, hyphens, step numbers, capitals, filler words and
whole steps of the template corpus.  Two properties are checked on every
text:

* nothing but :class:`AlignmentError` escapes :func:`align_response` or
  :func:`parse_response` (raw, and read as already aligned);
* a digest of what the aligner returns — the aligned response or its error
  text, :func:`find_propositions` and :func:`find_action` — and of the steps
  :func:`parse_response` reads, raw and taken as aligned, equals a pinned
  constant, so a faster matcher must return exactly what the
  phrase-by-phrase matcher returned.
"""

import hashlib
import json
import random

import pytest

from repro.driving.responses import RESPONSE_LIBRARY, VAGUE_RESPONSES
from repro.errors import AlignmentError
from repro.glm2fsa import align_response, find_action, find_propositions, parse_response, strip_numbering
from repro.glm2fsa.aligner import ACTION_LEXICON, NEGATION_CUES, OBSERVE_VERBS, PROPOSITION_LEXICON

FILLERS = (
    "the", "a", "there", "is", "are", "your", "vehicle", "it", "safe", "safely",
    "carefully", "before", "after", "until", "green", "left", "right", "car",
    "cars", "light", "turn", "traffic", "isn't", "n't", "off", "gone", "clear",
    "approaching", "from", "on", "at", "in", "front", "ahead", "oncoming",
    "intersection", "pedestrian", "sign", "moving", "straight", "stopped",
)
CONNECTIVES = ("if", "when", "then", "and", "or", ",")

TEMPLATES = [text for per_task in RESPONSE_LIBRARY.values() for texts in per_task.values() for text in texts]
TEMPLATE_STEPS = sorted(
    {strip_numbering(line) for text in TEMPLATES + list(VAGUE_RESPONSES) for line in text.splitlines()}
)

#: Token sources and their weights.
POOLS = (
    (tuple(PROPOSITION_LEXICON), 4),
    (tuple(ACTION_LEXICON), 3),
    (NEGATION_CUES, 2),
    (OBSERVE_VERBS, 1),
    (CONNECTIVES, 2),
    (FILLERS, 4),
)

SEED = 21
TEXTS = 3000

#: sha256 (first 16 hex digits) of the outputs of every text of
#: ``random_texts(SEED, TEXTS)``, pinned from the phrase-by-phrase matcher.
DIGEST = "96a132b34d0cbb6d"


def random_step(rng: random.Random) -> str:
    """One step: a template step, a token soup, or a soup around a template step."""
    draw = rng.random()
    if draw < 0.2:
        return rng.choice(TEMPLATE_STEPS)
    words = []
    for _ in range(rng.randint(1, 12)):
        pool = rng.choices([p for p, _ in POOLS], weights=[w for _, w in POOLS])[0]
        words.append(rng.choice(pool))
    if draw < 0.35:
        words.insert(rng.randint(0, len(words)), rng.choice(TEMPLATE_STEPS).rstrip("."))
    text = ""
    for word in words:
        if not text or word == ",":
            text += word
        else:
            text += "-" + word if rng.random() < 0.1 else " " + word
    if rng.random() < 0.3:
        text = text[:1].upper() + text[1:]
    return text + "." if rng.random() < 0.5 else text


def random_text(rng: random.Random) -> str:
    """A response of 1-5 lines, numbered ``3.``/``3)``, unnumbered, or blank."""
    lines = []
    for i in range(rng.randint(1, 5)):
        prefix = rng.choice((f"{i + 1}. ", f"{i + 1}) ", "", f"{rng.randint(1, 9)}."))
        lines.append("" if rng.random() < 0.05 else prefix + random_step(rng))
    return "\n".join(lines)


def random_texts(seed: int, count: int) -> list:
    rng = random.Random(seed)
    return [random_text(rng) for _ in range(count)]


def _or_error(function, text: str, **kwargs):
    """``function(text)``, or the text of the :class:`AlignmentError` it raised."""
    try:
        return function(text, **kwargs)
    except AlignmentError as exc:
        return f"AlignmentError: {exc}"


def outputs(text: str) -> list:
    """Everything the aligner and the parser return for ``text``."""
    parsed = [_or_error(parse_response, text, aligned=aligned) for aligned in (False, True)]
    steps = [p if isinstance(p, str) else [repr(step) for step in p.steps] for p in parsed]
    return [_or_error(align_response, text), find_propositions(text), find_action(text), steps]


def test_fuzz_raises_only_alignment_errors_and_matches_the_pinned_digest():
    digest = hashlib.sha256()
    for text in random_texts(SEED, TEXTS):
        try:
            record = outputs(text)
        except Exception as exc:  # noqa: BLE001 - the property under test
            pytest.fail(f"{type(exc).__name__} escaped on {text!r}: {exc}")
        digest.update(json.dumps(record).encode())
    assert digest.hexdigest()[:16] == DIGEST


def test_fuzz_texts_cover_every_piece():
    texts = random_texts(SEED, TEXTS)
    joined = "\n".join(texts).lower()
    for phrase in list(PROPOSITION_LEXICON) + list(ACTION_LEXICON) + list(NEGATION_CUES):
        assert phrase in joined.replace("-", " "), phrase
    assert sum("-" in text for text in texts) > TEXTS // 4
    assert sum(1 for text in texts if "if" in text.lower().split()) > TEXTS // 4
    assert sum(1 for text in texts if ")" in text) > TEXTS // 4


def test_crossing_phrases_are_claimed_longest_first():
    # "oncoming car" (12 chars) starts first, but "car from the left" (17)
    # is claimed first over the whole clause and takes the shared "car".
    assert find_propositions("oncoming car from the left") == [(9, "car_from_left", False)]
