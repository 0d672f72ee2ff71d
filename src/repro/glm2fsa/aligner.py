"""Alignment of free-text phrases to the defined propositions and actions.

The paper's second prompt ("Align the following steps to the set of Boolean
propositions {...} and actions {...}") asks the language model to rewrite its
own steps using the canonical vocabulary.  In this reproduction the alignment
is a deterministic lexicon lookup: it is the behaviour the fine-tuned model is
supposed to converge to, and making it deterministic removes one source of
noise from the feedback signal while exercising the same code path (raw step
text in, vocabulary-aligned step text out).

The lexicon intentionally covers many phrasings (e.g. "oncoming traffic",
"cars coming from the opposite direction") so the semantic parser tolerates
the lexical variety present in the synthetic response corpus.
"""

from __future__ import annotations

import re

from repro.errors import AlignmentError

#: Phrase → environment proposition.  Longest phrases are matched first.
PROPOSITION_LEXICON: dict = {
    "green traffic light": "green_traffic_light",
    "traffic light is green": "green_traffic_light",
    "traffic light turns green": "green_traffic_light",
    "light is green": "green_traffic_light",
    "green light": "green_traffic_light",
    "green left turn light": "green_left_turn_light",
    "left turn light is green": "green_left_turn_light",
    "left turn light turns green": "green_left_turn_light",
    "green left turn arrow": "green_left_turn_light",
    "green arrow": "green_left_turn_light",
    "left turn light": "green_left_turn_light",
    "flashing left turn light": "flashing_left_turn_light",
    "opposite car": "opposite_car",
    "oncoming traffic": "opposite_car",
    "oncoming car": "opposite_car",
    "oncoming cars": "opposite_car",
    "oncoming vehicle": "opposite_car",
    "oncoming vehicles": "opposite_car",
    "traffic to clear": "opposite_car",
    "car ahead": "opposite_car",
    "car in front": "opposite_car",
    "car from the left": "car_from_left",
    "car from left": "car_from_left",
    "cars from the left": "car_from_left",
    "car approaching from the left": "car_from_left",
    "traffic from the left": "car_from_left",
    "traffic from your left": "car_from_left",
    "left approaching car": "car_from_left",
    "car on the left": "car_from_left",
    "car from the right": "car_from_right",
    "car from right": "car_from_right",
    "cars from the right": "car_from_right",
    "traffic from the right": "car_from_right",
    "car approaching from the right": "car_from_right",
    "car on the right": "car_from_right",
    "pedestrian at left": "pedestrian_at_left",
    "pedestrian on the left": "pedestrian_at_left",
    "pedestrian on your left": "pedestrian_at_left",
    "pedestrians on the left": "pedestrian_at_left",
    "pedestrians on your left": "pedestrian_at_left",
    "pedestrian at right": "pedestrian_at_right",
    "pedestrian on the right": "pedestrian_at_right",
    "pedestrian on your right": "pedestrian_at_right",
    "pedestrians on the right": "pedestrian_at_right",
    "pedestrians on your right": "pedestrian_at_right",
    "right side pedestrian": "pedestrian_at_right",
    "pedestrian in front": "pedestrian_in_front",
    "pedestrian ahead": "pedestrian_in_front",
    "pedestrian crossing in front": "pedestrian_in_front",
    "pedestrian in the crosswalk": "pedestrian_in_front",
    "stop sign": "stop_sign",
    "pedestrian": "pedestrian",
    "pedestrians": "pedestrian",
    "traffic light": "green_traffic_light",  # "observe the traffic light"
    "intersection is clear": "intersection_clear",  # unaligned marker (see below)
}

#: Phrase → controller action.  Longest phrases are matched first.
ACTION_LEXICON: dict = {
    "come to a complete stop": "stop",
    "come to a stop": "stop",
    "remain stopped": "stop",
    "stay stopped": "stop",
    "stop": "stop",
    "halt": "stop",
    "wait": "stop",
    "yield": "stop",
    "turn your vehicle left": "turn_left",
    "execute the action turn left": "turn_left",
    "make the left turn": "turn_left",
    "turn left": "turn_left",
    "turn your vehicle right": "turn_right",
    "execute the action turn right": "turn_right",
    "make the right turn": "turn_right",
    "proceed to turn right": "turn_right",
    "turn right": "turn_right",
    "execute the action go straight": "go_straight",
    "go straight": "go_straight",
    "proceed straight": "go_straight",
    "drive straight": "go_straight",
    "continue straight": "go_straight",
    "proceed through the intersection": "go_straight",
    "drive through the intersection": "go_straight",
    "start moving forward": "go_straight",
    "move forward": "go_straight",
    "keep moving": "go_straight",
    "enter the roundabout": "go_straight",
    "proceed into the roundabout": "go_straight",
    "proceed": "go_straight",
    "accelerate": "go_straight",
}

#: Verbs introducing a pure observation (no control action).
OBSERVE_VERBS: tuple = (
    "observe",
    "check",
    "look for",
    "look to",
    "look at",
    "watch for",
    "monitor",
    "scan for",
)

#: Cues that negate the following proposition phrase.
NEGATION_CUES: tuple = (
    "no",
    "not",
    "without",
    "clear of",
    "absent",
    "free of",
    "none",
)

#: Propositions the lexicon may emit that are *not* part of the driving
#: vocabulary; the aligner maps them to nothing (they are dropped with a
#: warning flag) — mirrors the paper's remark that alignment can fail.
UNALIGNED_MARKERS: frozenset = frozenset({"intersection_clear"})


def _phrase_table(lexicon: dict) -> tuple:
    """``(phrase, value, pattern)`` for every phrase of ``lexicon``, longest first.

    Compiled once: the matchers run on every clause of every response.  A
    ``\b``-bounded phrase can match only where its literal text occurs, so
    the matchers test ``phrase in text`` before running the pattern.
    """
    return tuple(
        (phrase, lexicon[phrase], re.compile(r"\b" + re.escape(phrase) + r"\b"))
        for phrase in sorted(lexicon, key=len, reverse=True)
    )


_PROPOSITION_TABLE = _phrase_table(PROPOSITION_LEXICON)
_ACTION_TABLE = _phrase_table(ACTION_LEXICON)

#: Any negation cue as a whole word; ``_is_negated`` only asks whether one occurs.
_NEGATION_CUE_RE = re.compile(r"\b(?:" + "|".join(map(re.escape, NEGATION_CUES)) + r")\b")


#: Patterns after a proposition phrase that negate it ("the light is not green").
_POST_NEGATION_RE = re.compile(
    r"^\s*(?:is|are|has|have)?\s*(?:not|n't)\b|^\s*(?:is|are)\s+(?:off|absent|gone|clear)\b"
)


def find_propositions(text: str) -> list:
    """Find proposition mentions in ``text``.

    Returns a list of ``(start_index, proposition, negated)`` triples ordered
    by position.  Longest-phrase-first matching prevents "traffic light" from
    shadowing "green traffic light"; negation is detected from cues shortly
    before ("no car from left") or after ("the light is not green") the phrase.
    """
    text = text.lower().replace("-", " ")
    matches: list = []
    claimed: list = []  # character spans already matched

    def overlaps(start: int, end: int) -> bool:
        return any(not (end <= s or start >= e) for s, e in claimed)

    for phrase, proposition, pattern in _PROPOSITION_TABLE:
        if phrase not in text:
            continue
        for match in pattern.finditer(text):
            start, end = match.span()
            if overlaps(start, end):
                continue
            claimed.append((start, end))
            negated = _is_negated(text, start, end)
            matches.append((start, proposition, negated))
    matches.sort(key=lambda item: item[0])
    return matches


def _is_negated(text: str, start: int, end: int) -> bool:
    """True if a negation cue occurs shortly before or right after the phrase."""
    window = text[max(0, start - 28): start]
    window_tokens = window.replace(",", " ").split()
    tail = " ".join(window_tokens[-4:])
    if _NEGATION_CUE_RE.search(tail):
        return True
    return bool(_POST_NEGATION_RE.search(text[end: end + 24]))


def find_action(text: str) -> str | None:
    """The controller action mentioned in ``text``, or None.

    The *earliest* mention wins (ties broken towards the longer phrase), so
    "turn left and proceed through the intersection" maps to ``turn_left``
    rather than to the later "proceed ..." phrase.
    """
    text = text.lower().replace("-", " ")
    best: tuple | None = None
    for phrase, action, pattern in _ACTION_TABLE:
        if phrase not in text:
            continue
        match = pattern.search(text)
        if match is None:
            continue
        key = (match.start(), -len(phrase))
        if best is None or key < best[0]:
            best = (key, action)
    return None if best is None else best[1]


def is_observation(text: str) -> bool:
    """True if the sentence is an observation/check rather than a control action."""
    text = text.lower().strip()
    return any(text.startswith(verb) or f" {verb} " in f" {text} " for verb in OBSERVE_VERBS)


def _aligned_literals(text: str) -> list:
    """Proposition literals of a clause, as ``"prop"`` / ``"no prop"`` strings."""
    parts = []
    for _, proposition, negated in find_propositions(text):
        if proposition in UNALIGNED_MARKERS:
            continue
        parts.append(("no " if negated else "") + proposition)
    return parts


def _split_conditional(text: str) -> tuple | None:
    """Split an "if ..." / "when ..." sentence into (condition, consequence) clauses."""
    match = re.search(r"\b(?:if|when)\b", text)
    if not match:
        return None
    remainder = text[match.end():]
    # Prefer an explicit "then"; otherwise split at the first comma.
    then_match = re.search(r"\bthen\b", remainder)
    if then_match:
        return remainder[: then_match.start()], remainder[then_match.end():]
    comma = remainder.find(",")
    if comma >= 0:
        return remainder[:comma], remainder[comma + 1:]
    return remainder, ""


def align_step(text: str) -> str:
    """Rewrite one step so propositions/actions use the canonical vocabulary.

    This is the deterministic stand-in for the paper's second (alignment)
    query, e.g. "Observe the state of the green traffic light." becomes
    "observe green_traffic_light" and "If there is no car from the left, check
    pedestrians on your right." becomes
    "if no car_from_left , observe pedestrian_at_right".
    """
    lowered = text.lower().replace("-", " ").strip().rstrip(".")

    conditional = _split_conditional(lowered)
    if conditional is not None:
        condition_clause, consequence_clause = conditional
        condition_parts = _aligned_literals(condition_clause)
        condition = " and ".join(condition_parts) if condition_parts else "true"
        action = find_action(consequence_clause)
        if action is not None and not is_observation(consequence_clause):
            consequence = action
        else:
            observed = _aligned_literals(consequence_clause)
            consequence = "observe " + " and ".join(observed) if observed else (action or "observe")
        return f"if {condition} , {consequence}"

    action = find_action(lowered)
    prop_parts = _aligned_literals(lowered)
    if action is not None and not is_observation(lowered):
        return action
    if prop_parts:
        return "observe " + " and ".join(prop_parts)
    if action is not None:
        return action
    raise AlignmentError(f"cannot align step to the vocabulary: {text!r}")


def align_response(text: str) -> str:
    """Align every numbered step of a response (blank lines are preserved)."""
    aligned_lines = []
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped:
            continue
        body = re.sub(r"^\d+[.)]\s*", "", stripped)
        if not body:
            continue
        aligned_lines.append(align_step(body))
    return "\n".join(f"{i + 1}. {line}" for i, line in enumerate(aligned_lines))
