"""Propositional guards on automaton transitions.

Controller and world-model transitions in the paper (Figures 1, 5, 6, 7, 15-18)
are guarded by Boolean expressions over atomic propositions, e.g.
``green TL ∧ ¬car from left``.  A :class:`Guard` is such an expression; it
evaluates against a *symbol* (the set of propositions that currently hold).

Guards are purely propositional.  Temporal-logic specifications live in
:mod:`repro.logic`; the two layers intentionally do not share an AST so the
automata package stays import-independent from the logic package.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.automata.alphabet import Symbol, canonical
from repro.errors import AutomatonError


class Guard:
    """Base class for propositional guard expressions."""

    def evaluate(self, symbol: Symbol) -> bool:
        """Return True if the guard holds for the given symbol."""
        raise NotImplementedError

    def atoms(self) -> frozenset:
        """The set of atomic propositions mentioned by the guard."""
        raise NotImplementedError

    # Operator sugar so guards compose readably: g1 & g2, g1 | g2, ~g1.
    def __and__(self, other: "Guard") -> "Guard":
        return GuardAnd((self, other))

    def __or__(self, other: "Guard") -> "Guard":
        return GuardOr((self, other))

    def __invert__(self) -> "Guard":
        return GuardNot(self)


@dataclass(frozen=True)
class GuardTrue(Guard):
    """The guard that always holds (written ``True`` on figures)."""

    def evaluate(self, symbol: Symbol) -> bool:
        return True

    def atoms(self) -> frozenset:
        return frozenset()

    def __str__(self) -> str:
        return "true"


@dataclass(frozen=True)
class GuardFalse(Guard):
    """The guard that never holds."""

    def evaluate(self, symbol: Symbol) -> bool:
        return False

    def atoms(self) -> frozenset:
        return frozenset()

    def __str__(self) -> str:
        return "false"


@dataclass(frozen=True)
class GuardAtom(Guard):
    """An atomic proposition used as a guard."""

    name: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", canonical(self.name))

    def evaluate(self, symbol: Symbol) -> bool:
        return self.name in symbol

    def atoms(self) -> frozenset:
        return frozenset({self.name})

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class GuardNot(Guard):
    """Negation of a guard."""

    operand: Guard

    def evaluate(self, symbol: Symbol) -> bool:
        return not self.operand.evaluate(symbol)

    def atoms(self) -> frozenset:
        return self.operand.atoms()

    def __str__(self) -> str:
        return f"!{_parenthesise(self.operand)}"


@dataclass(frozen=True)
class GuardAnd(Guard):
    """Conjunction of guards."""

    operands: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "operands", tuple(self.operands))

    def evaluate(self, symbol: Symbol) -> bool:
        return all(op.evaluate(symbol) for op in self.operands)

    def atoms(self) -> frozenset:
        return frozenset().union(*(op.atoms() for op in self.operands)) if self.operands else frozenset()

    def __str__(self) -> str:
        if not self.operands:
            return "true"
        return " & ".join(_parenthesise(op) for op in self.operands)


@dataclass(frozen=True)
class GuardOr(Guard):
    """Disjunction of guards."""

    operands: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "operands", tuple(self.operands))

    def evaluate(self, symbol: Symbol) -> bool:
        return any(op.evaluate(symbol) for op in self.operands)

    def atoms(self) -> frozenset:
        return frozenset().union(*(op.atoms() for op in self.operands)) if self.operands else frozenset()

    def __str__(self) -> str:
        if not self.operands:
            return "false"
        return " | ".join(_parenthesise(op) for op in self.operands)


def _parenthesise(guard: Guard) -> str:
    text = str(guard)
    if isinstance(guard, (GuardAnd, GuardOr)) and len(guard.operands) > 1:
        return f"({text})"
    return text


TRUE = GuardTrue()
FALSE = GuardFalse()


def atom(name: str) -> GuardAtom:
    """Shorthand constructor for an atomic guard."""
    return GuardAtom(name)


def conj(*guards: Guard) -> Guard:
    """Conjunction helper that flattens trivial cases."""
    guards = tuple(g for g in guards if not isinstance(g, GuardTrue))
    if any(isinstance(g, GuardFalse) for g in guards):
        return FALSE
    if not guards:
        return TRUE
    if len(guards) == 1:
        return guards[0]
    return GuardAnd(guards)


def disj(*guards: Guard) -> Guard:
    """Disjunction helper that flattens trivial cases."""
    guards = tuple(g for g in guards if not isinstance(g, GuardFalse))
    if any(isinstance(g, GuardTrue) for g in guards):
        return TRUE
    if not guards:
        return FALSE
    if len(guards) == 1:
        return guards[0]
    return GuardOr(guards)


# --------------------------------------------------------------------------- #
# A tiny recursive-descent parser for guard expressions.
#
# Grammar (standard precedence !  >  &  >  |):
#   expr   := term ('|' term)*
#   term   := factor ('&' factor)*
#   factor := '!' factor | '(' expr ')' | 'true' | 'false' | ATOM
# Unicode connectives ∧ ∨ ¬ are accepted as synonyms.
# --------------------------------------------------------------------------- #

_SYNONYMS = {"∧": "&", "∨": "|", "¬": "!", "&&": "&", "||": "|"}


def _tokenize(text: str) -> list[str]:
    for src, dst in _SYNONYMS.items():
        text = text.replace(src, f" {dst} ")
    for ch in "()&|!":
        text = text.replace(ch, f" {ch} ")
    return text.split()


def parse_guard(text: str) -> Guard:
    """Parse a guard expression such as ``"green_tl & !(car_from_left | ped)"``."""
    tokens = _tokenize(text)
    if not tokens:
        raise AutomatonError(f"empty guard expression: {text!r}")
    guard, pos = _parse_or(tokens, 0)
    if pos != len(tokens):
        raise AutomatonError(f"trailing tokens in guard {text!r}: {tokens[pos:]}")
    return guard


def _parse_or(tokens: list[str], pos: int) -> tuple[Guard, int]:
    left, pos = _parse_and(tokens, pos)
    operands = [left]
    while pos < len(tokens) and tokens[pos] == "|":
        right, pos = _parse_and(tokens, pos + 1)
        operands.append(right)
    return (operands[0] if len(operands) == 1 else GuardOr(tuple(operands))), pos


def _parse_and(tokens: list[str], pos: int) -> tuple[Guard, int]:
    left, pos = _parse_factor(tokens, pos)
    operands = [left]
    while pos < len(tokens) and tokens[pos] == "&":
        right, pos = _parse_factor(tokens, pos + 1)
        operands.append(right)
    return (operands[0] if len(operands) == 1 else GuardAnd(tuple(operands))), pos


def _parse_factor(tokens: list[str], pos: int) -> tuple[Guard, int]:
    if pos >= len(tokens):
        raise AutomatonError("unexpected end of guard expression")
    tok = tokens[pos]
    if tok == "!":
        inner, pos = _parse_factor(tokens, pos + 1)
        return GuardNot(inner), pos
    if tok == "(":
        inner, pos = _parse_or(tokens, pos + 1)
        if pos >= len(tokens) or tokens[pos] != ")":
            raise AutomatonError("unbalanced parentheses in guard expression")
        return inner, pos + 1
    if tok == ")":
        raise AutomatonError("unexpected ')' in guard expression")
    if tok.lower() == "true":
        return TRUE, pos + 1
    if tok.lower() == "false":
        return FALSE, pos + 1
    return GuardAtom(tok), pos + 1
