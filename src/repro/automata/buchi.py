"""Büchi automata over propositional transition labels.

Used by the LTL→automaton translation (:mod:`repro.logic.ltl2buchi`) and the
model checker.  Transition labels are *literal constraints*: a pair of sets
``(positive, negative)`` meaning every positive atom must hold and no negative
atom may hold in the symbol being read; this is the natural output format of
the tableau construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable

from repro.automata.alphabet import Symbol
from repro.errors import AutomatonError


@dataclass(frozen=True)
class LabelConstraint:
    """A conjunction of literals constraining which symbols a transition reads."""

    positive: frozenset = frozenset()
    negative: frozenset = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "positive", frozenset(self.positive))
        object.__setattr__(self, "negative", frozenset(self.negative))

    def is_consistent(self) -> bool:
        """False if the constraint requires an atom to be both true and false."""
        return not (self.positive & self.negative)

    def satisfied_by(self, symbol: Symbol) -> bool:
        """True if ``symbol`` satisfies every literal."""
        return self.positive <= symbol and not (self.negative & symbol)

    def merge(self, other: "LabelConstraint") -> "LabelConstraint":
        """Conjunction of two constraints."""
        return LabelConstraint(self.positive | other.positive, self.negative | other.negative)

    def __str__(self) -> str:
        parts = sorted(self.positive) + [f"!{a}" for a in sorted(self.negative)]
        return " & ".join(parts) if parts else "true"


TRUE_CONSTRAINT = LabelConstraint()


@dataclass(frozen=True)
class BuchiTransition:
    """A transition ``source --constraint--> target`` of a Büchi automaton."""

    source: Hashable
    constraint: LabelConstraint
    target: Hashable


@dataclass
class BuchiAutomaton:
    """A (non-deterministic) Büchi automaton with a single acceptance set."""

    name: str = "buchi"
    states: set = field(default_factory=set)
    initial_states: set = field(default_factory=set)
    accepting_states: set = field(default_factory=set)
    transitions: list = field(default_factory=list)

    def add_state(self, state: Hashable, *, initial: bool = False, accepting: bool = False) -> Hashable:
        self.states.add(state)
        if initial:
            self.initial_states.add(state)
        if accepting:
            self.accepting_states.add(state)
        return state

    def add_transition(self, source: Hashable, constraint: LabelConstraint, target: Hashable) -> None:
        if source not in self.states or target not in self.states:
            raise AutomatonError(f"Büchi transition references unknown states: {source!r} -> {target!r}")
        if not constraint.is_consistent():
            return  # an inconsistent constraint can never fire; drop it silently
        self.transitions.append(BuchiTransition(source, constraint, target))

    def transitions_from(self, state: Hashable) -> list:
        return [t for t in self.transitions if t.source == state]

    @property
    def num_states(self) -> int:
        return len(self.states)

    @property
    def num_transitions(self) -> int:
        return len(self.transitions)

    def validate(self) -> None:
        if not self.initial_states:
            raise AutomatonError(f"Büchi automaton {self.name!r} has no initial state")
        unknown = (self.initial_states | self.accepting_states) - self.states
        if unknown:
            raise AutomatonError(f"Büchi automaton references unknown states {unknown!r}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BuchiAutomaton(name={self.name!r}, states={self.num_states}, "
            f"transitions={self.num_transitions}, accepting={len(self.accepting_states)})"
        )


@dataclass
class GeneralizedBuchiAutomaton:
    """A Büchi automaton with several acceptance sets (the tableau output)."""

    name: str = "gba"
    states: set = field(default_factory=set)
    initial_states: set = field(default_factory=set)
    acceptance_sets: list = field(default_factory=list)  # list[set[state]]
    transitions: list = field(default_factory=list)

    def add_state(self, state: Hashable, *, initial: bool = False) -> Hashable:
        self.states.add(state)
        if initial:
            self.initial_states.add(state)
        return state

    def add_transition(self, source: Hashable, constraint: LabelConstraint, target: Hashable) -> None:
        if source not in self.states or target not in self.states:
            raise AutomatonError(f"GBA transition references unknown states: {source!r} -> {target!r}")
        if not constraint.is_consistent():
            return
        self.transitions.append(BuchiTransition(source, constraint, target))

    def transitions_from(self, state: Hashable) -> list:
        return [t for t in self.transitions if t.source == state]

    def degeneralize(self) -> BuchiAutomaton:
        """Standard counter construction: GBA with k acceptance sets → NBA.

        States become ``(state, i)`` where ``i`` counts which acceptance set we
        are waiting to visit next; the NBA accepting set is ``{(s, 0) | s ∈ F_0}``
        reached after cycling through every ``F_i``.
        """
        k = len(self.acceptance_sets)
        nba = BuchiAutomaton(name=f"{self.name}_degeneralized")
        if k == 0:
            # No acceptance obligations: every state is accepting.
            for s in self.states:
                nba.add_state((s, 0), initial=s in self.initial_states, accepting=True)
            for t in self.transitions:
                nba.add_transition((t.source, 0), t.constraint, (t.target, 0))
            nba.validate()
            return nba

        for s in self.states:
            for i in range(k):
                nba.add_state(
                    (s, i),
                    initial=(s in self.initial_states and i == 0),
                    accepting=(i == 0 and s in self.acceptance_sets[0]),
                )
        for t in self.transitions:
            for i in range(k):
                # Advance the counter when the source lies in the i-th set.
                j = (i + 1) % k if t.source in self.acceptance_sets[i] else i
                nba.add_transition((t.source, i), t.constraint, (t.target, j))
        nba.validate()
        return nba

    @property
    def num_states(self) -> int:
        return len(self.states)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GeneralizedBuchiAutomaton(name={self.name!r}, states={self.num_states}, "
            f"acceptance_sets={len(self.acceptance_sets)})"
        )
