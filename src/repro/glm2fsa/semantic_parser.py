"""Semantic parsing of (aligned) step descriptions into structured steps.

The parser consumes the canonical form produced by
:func:`repro.glm2fsa.aligner.align_step`::

    observe green_traffic_light
    if no car_from_left and no pedestrian_at_right , turn_right
    if pedestrian_in_front , stop
    turn_right

and produces :class:`~repro.glm2fsa.grammar.ObserveStep`,
:class:`~repro.glm2fsa.grammar.ConditionalStep` and
:class:`~repro.glm2fsa.grammar.ActionStep` objects.  Raw (unaligned) responses
are accepted too: they are passed through the aligner first, mirroring the
paper's two-stage prompting (steps, then alignment).
"""

from __future__ import annotations

import re

from repro.driving.propositions import DRIVING_ACTIONS
from repro.errors import AlignmentError
from repro.glm2fsa.aligner import align_step
from repro.glm2fsa.grammar import (
    ActionStep,
    Condition,
    ConditionLiteral,
    ConditionalStep,
    ObserveStep,
    ParsedResponse,
    Step,
)

_NUMBER_PREFIX_RE = re.compile(r"^\d+[.)]\s*")
_ACTIONS = set(DRIVING_ACTIONS)
#: The first action or ``observe`` token, longest alternative first.
_CONSEQUENCE_RE = re.compile(r"\b(" + "|".join(sorted(_ACTIONS | {"observe"}, key=len, reverse=True)) + r")\b")


def strip_numbering(line: str) -> str:
    """Remove a leading ``"3. "`` / ``"3) "`` numbering prefix."""
    return _NUMBER_PREFIX_RE.sub("", line.strip())


def _parse_literals(text: str) -> tuple[tuple, str]:
    """Parse ``"no a and b"`` / ``"a or b"`` into literals plus the connective."""
    text = text.strip()
    if not text or text == "true":
        return (), "and"
    connective = "or" if re.search(r"\bor\b", text) else "and"
    raw_parts = re.split(r"\band\b|\bor\b", text)
    literals = []
    for part in raw_parts:
        part = part.strip().strip(",")
        if not part:
            continue
        negated = part.startswith("no ") or part.startswith("not ")
        name = part[3:].strip() if negated else part
        name = name.replace("not ", "").strip()
        if not name:
            continue
        literals.append(ConditionLiteral(name, positive=not negated))
    return tuple(literals), connective


def parse_aligned_step(text: str) -> Step:
    """Parse one canonical (aligned) step description."""
    text = text.strip().rstrip(".").strip()
    if not text:
        raise AlignmentError("empty step description")

    if text.startswith("if "):
        body = text[3:]
        if "," in body:
            condition_text, consequence = body.split(",", 1)
        else:
            # Fall back to splitting before the final action/observe token.
            match = _CONSEQUENCE_RE.search(body)
            if not match:
                raise AlignmentError(f"conditional step has no consequence: {text!r}")
            condition_text, consequence = body[: match.start()], body[match.start():]
        literals, connective = _parse_literals(condition_text)
        consequence = consequence.strip()
        if consequence.startswith("observe"):
            observed_literals, _ = _parse_literals(consequence[len("observe"):])
            observed = tuple(lit.proposition for lit in observed_literals)
            return ConditionalStep(Condition(literals, connective), action=None, observed=observed, text=text)
        action = consequence.split()[0] if consequence else ""
        if action not in _ACTIONS:
            raise AlignmentError(f"unknown action {action!r} in step {text!r}")
        return ConditionalStep(Condition(literals, connective), action=action, text=text)

    if text.startswith("observe"):
        observed_literals, _ = _parse_literals(text[len("observe"):])
        observed = tuple(lit.proposition for lit in observed_literals)
        return ObserveStep(propositions=observed, text=text)

    first_word = text.split()[0]
    if first_word in _ACTIONS:
        return ActionStep(action=first_word, text=text)
    raise AlignmentError(f"cannot parse aligned step: {text!r}")


def parse_step(text: str, *, aligned: bool = False) -> Step:
    """Parse one step; align raw prose first unless ``aligned`` is True."""
    canonical = text if aligned else align_step(strip_numbering(text))
    return parse_aligned_step(canonical)


def parse_response(text: str, *, task: str = "", aligned: bool = False) -> ParsedResponse:
    """Parse a whole numbered response into a :class:`ParsedResponse`.

    Lines that cannot be aligned are skipped (the paper notes alignment can
    fail; an unalignable step simply contributes nothing to the controller,
    which typically lowers the verification score of that response).
    """
    steps = []
    for line in text.splitlines():
        stripped = strip_numbering(line)
        if not stripped:
            continue
        try:
            steps.append(parse_step(stripped, aligned=aligned))
        except AlignmentError:
            continue
    return ParsedResponse(task=task, steps=steps, raw_text=text)
