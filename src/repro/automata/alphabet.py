"""Atomic propositions, actions, symbols, and vocabularies.

The paper (Section 3) works with a set of atomic propositions ``P`` describing
the environment/system behaviour and a set of atomic propositions ``PA``
describing controller actions.  A *symbol* is an element of ``2^P`` (or
``2^(P ∪ PA)``): the set of propositions that evaluate to True at an instant.

We canonicalise proposition names (lower case, spaces become underscores) so
the same proposition written as ``"green traffic light"`` in prose and
``green_traffic_light`` in a formula refers to one entity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Iterator

from repro.errors import AutomatonError

Symbol = frozenset  # frozenset[str]: the propositions that are True

#: The empty output symbol ε ("no operation") from Section 3.
EPSILON: Symbol = frozenset()


def canonical(name: str) -> str:
    """Canonicalise a proposition/action name.

    ``"Green Traffic Light"`` → ``"green_traffic_light"``.  Logical-negation
    prefixes are rejected; negation belongs in guards and formulas, not names.
    """
    if not isinstance(name, str) or not name.strip():
        raise AutomatonError(f"proposition name must be a non-empty string, got {name!r}")
    text = "_".join(name.strip().lower().split())
    if text.startswith(("!", "¬", "not_")):
        raise AutomatonError(f"proposition name may not embed a negation: {name!r}")
    return text


def make_symbol(props: Iterable[str]) -> Symbol:
    """Build a canonical symbol (frozenset of canonical proposition names)."""
    return frozenset(canonical(p) for p in props)


def powerset_symbols(props: Iterable[str]) -> Iterator[Symbol]:
    """Iterate over ``2^P`` as canonical symbols, smallest sets first."""
    names = sorted({canonical(p) for p in props})
    for r in range(len(names) + 1):
        for combo in combinations(names, r):
            yield frozenset(combo)


def format_symbol(symbol: Symbol) -> str:
    """Human-readable rendering of a symbol, ``{}`` shown as ``ε``."""
    if not symbol:
        return "ε"
    return "{" + ", ".join(sorted(symbol)) + "}"


@dataclass(frozen=True)
class Vocabulary:
    """The pair (P, PA) of environment propositions and controller actions.

    Attributes
    ----------
    propositions:
        Canonical names of the atomic propositions ``P`` describing the
        environment / system behaviour (e.g. ``green_traffic_light``).
    actions:
        Canonical names of the action propositions ``PA`` (e.g. ``turn_right``).
    """

    propositions: frozenset = field(default_factory=frozenset)
    actions: frozenset = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        object.__setattr__(self, "propositions", frozenset(canonical(p) for p in self.propositions))
        object.__setattr__(self, "actions", frozenset(canonical(a) for a in self.actions))
        overlap = self.propositions & self.actions
        if overlap:
            raise AutomatonError(
                f"propositions and actions must be disjoint; both contain {sorted(overlap)}"
            )

    @property
    def all_atoms(self) -> frozenset:
        """``P ∪ PA`` — the atoms temporal-logic specifications range over."""
        return self.propositions | self.actions

    def is_proposition(self, name: str) -> bool:
        """True if ``name`` canonicalises to a member of ``P``."""
        return canonical(name) in self.propositions

    def is_action(self, name: str) -> bool:
        """True if ``name`` canonicalises to a member of ``PA``."""
        return canonical(name) in self.actions

    def validate_symbol(self, symbol: Iterable[str], *, allow_actions: bool = True) -> Symbol:
        """Canonicalise ``symbol`` and check every atom is known to the vocabulary."""
        sym = make_symbol(symbol)
        allowed = self.all_atoms if allow_actions else self.propositions
        unknown = sym - allowed
        if unknown:
            raise AutomatonError(f"unknown atoms in symbol: {sorted(unknown)}")
        return sym
