"""Abstract syntax tree for linear temporal logic (LTL).

The grammar follows the paper's Appendix A:

    φ := p | ¬φ | φ ∨ φ | φ ∧ φ | φ → φ | ◦φ | ♢φ | □φ | φ U φ | φ R φ

Formulas are immutable dataclasses; convenience constructors live at module
level (``G``, ``F``, ``X``, ``U``, ...) so specifications read close to their
mathematical form, e.g. ``G(Implies(Atom("pedestrian"), F(Atom("stop"))))``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.automata.alphabet import canonical


class Formula:
    """Base class of all LTL formula nodes."""

    def atoms(self) -> frozenset:
        """All atomic propositions occurring in the formula."""
        return frozenset(node.name for node in self.walk() if isinstance(node, Atom))

    def walk(self) -> Iterator["Formula"]:
        """Pre-order traversal of the syntax tree."""
        yield self
        for child in self.children():
            yield from child.walk()

    def children(self) -> tuple:
        """Immediate sub-formulas."""
        return ()

    def size(self) -> int:
        """Number of syntax-tree nodes."""
        return sum(1 for _ in self.walk())

    # Operator sugar for building formulas programmatically.
    def __and__(self, other: "Formula") -> "Formula":
        return And(self, other)

    def __or__(self, other: "Formula") -> "Formula":
        return Or(self, other)

    def __invert__(self) -> "Formula":
        return Not(self)

    def __rshift__(self, other: "Formula") -> "Formula":
        return Implies(self, other)


@dataclass(frozen=True)
class TrueFormula(Formula):
    """The constant ``true``."""

    def __str__(self) -> str:
        return "true"


@dataclass(frozen=True)
class FalseFormula(Formula):
    """The constant ``false``."""

    def __str__(self) -> str:
        return "false"


@dataclass(frozen=True)
class Atom(Formula):
    """An atomic proposition (canonicalised name)."""

    name: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", canonical(self.name))

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Not(Formula):
    """Negation ``¬φ``."""

    operand: Formula

    def children(self) -> tuple:
        return (self.operand,)

    def __str__(self) -> str:
        return f"!{_wrap(self.operand)}"


@dataclass(frozen=True)
class And(Formula):
    """Conjunction ``φ ∧ ψ``."""

    left: Formula
    right: Formula

    def children(self) -> tuple:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"{_wrap(self.left)} & {_wrap(self.right)}"


@dataclass(frozen=True)
class Or(Formula):
    """Disjunction ``φ ∨ ψ``."""

    left: Formula
    right: Formula

    def children(self) -> tuple:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"{_wrap(self.left)} | {_wrap(self.right)}"


@dataclass(frozen=True)
class Implies(Formula):
    """Implication ``φ → ψ``."""

    left: Formula
    right: Formula

    def children(self) -> tuple:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"{_wrap(self.left)} -> {_wrap(self.right)}"


@dataclass(frozen=True)
class Next(Formula):
    """Next ``◦φ`` (also written ``X φ``)."""

    operand: Formula

    def children(self) -> tuple:
        return (self.operand,)

    def __str__(self) -> str:
        return f"X {_wrap(self.operand)}"


@dataclass(frozen=True)
class Eventually(Formula):
    """Eventually ``♢φ`` (also written ``F φ``)."""

    operand: Formula

    def children(self) -> tuple:
        return (self.operand,)

    def __str__(self) -> str:
        return f"F {_wrap(self.operand)}"


@dataclass(frozen=True)
class Always(Formula):
    """Always ``□φ`` (also written ``G φ``)."""

    operand: Formula

    def children(self) -> tuple:
        return (self.operand,)

    def __str__(self) -> str:
        return f"G {_wrap(self.operand)}"


@dataclass(frozen=True)
class Until(Formula):
    """Until ``φ U ψ``."""

    left: Formula
    right: Formula

    def children(self) -> tuple:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"{_wrap(self.left)} U {_wrap(self.right)}"


@dataclass(frozen=True)
class Release(Formula):
    """Release ``φ R ψ`` — the dual of Until, used by negation normal form."""

    left: Formula
    right: Formula

    def children(self) -> tuple:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"{_wrap(self.left)} R {_wrap(self.right)}"


def _wrap(formula: Formula) -> str:
    """Parenthesise binary sub-formulas for unambiguous printing."""
    text = str(formula)
    if isinstance(formula, (And, Or, Implies, Until, Release)):
        return f"({text})"
    return text


# --------------------------------------------------------------------------- #
# Convenience constructors mirroring the paper's notation.
# --------------------------------------------------------------------------- #

TRUE = TrueFormula()
FALSE = FalseFormula()


def A(name: str) -> Atom:
    """Atomic proposition constructor (short alias)."""
    return Atom(name)


def G(operand: Formula) -> Always:
    """``□`` (always)."""
    return Always(operand)


def F(operand: Formula) -> Eventually:
    """``♢`` (eventually)."""
    return Eventually(operand)


def X(operand: Formula) -> Next:
    """``◦`` (next)."""
    return Next(operand)


def U(left: Formula, right: Formula) -> Until:
    """``U`` (until)."""
    return Until(left, right)


def R(left: Formula, right: Formula) -> Release:
    """``R`` (release)."""
    return Release(left, right)


def conjunction(formulas: list) -> Formula:
    """Fold a list of formulas into a conjunction (``true`` if empty)."""
    if not formulas:
        return TRUE
    result = formulas[0]
    for f in formulas[1:]:
        result = And(result, f)
    return result
