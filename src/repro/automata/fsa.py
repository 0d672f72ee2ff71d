"""Finite-state-automaton controllers.

Implements the controller ``A = ⟨Σ, A, Q, q0, δ⟩`` of Section 3: input symbols
are subsets of the environment propositions ``P`` (represented here by a
propositional :class:`~repro.automata.guards.Guard` on each transition),
output symbols are subsets of the action propositions ``PA`` (including the
empty symbol ε), and ``δ`` is a non-deterministic transition relation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.automata.alphabet import EPSILON, Symbol, Vocabulary, format_symbol, make_symbol
from repro.automata.guards import Guard, parse_guard
from repro.errors import AutomatonError


@dataclass(frozen=True)
class ControllerTransition:
    """One guarded transition ``(q, σ-guard, a, q')`` of a controller."""

    source: str
    guard: Guard
    action: Symbol
    target: str

    def __str__(self) -> str:
        return f"{self.source} --({self.guard}, {format_symbol(self.action)})--> {self.target}"


@dataclass
class FSAController:
    """An automaton-based controller for a sequential decision-making task.

    Parameters
    ----------
    name:
        Controller name, typically derived from the task prompt.
    vocabulary:
        Propositions (inputs) and actions (outputs) the controller ranges over.
    initial_state:
        ``q0``; set explicitly or defaults to the first state added.
    """

    name: str = "controller"
    vocabulary: Vocabulary = field(default_factory=Vocabulary)
    initial_state: str | None = None
    _states: list = field(default_factory=list)
    _transitions: list = field(default_factory=list)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_state(self, state: str, *, initial: bool = False) -> str:
        """Add a controller state; the first state added becomes q0 by default."""
        if state not in self._states:
            self._states.append(state)
        if initial or self.initial_state is None:
            self.initial_state = state if initial else (self.initial_state or state)
        return state

    def add_transition(
        self,
        source: str,
        guard: Guard | str,
        action: Iterable[str] | str | None,
        target: str,
    ) -> ControllerTransition:
        """Add transition ``(source, guard, action, target)``.

        ``guard`` may be a :class:`Guard` or a guard expression string;
        ``action`` may be an action name, an iterable of names, or ``None``/
        empty for the ε (no-operation) output symbol.
        """
        for s in (source, target):
            if s not in self._states:
                raise AutomatonError(f"unknown controller state {s!r}")
        if isinstance(guard, str):
            guard = parse_guard(guard)
        if action is None:
            action_symbol = EPSILON
        elif isinstance(action, str):
            action_symbol = make_symbol([action]) if action else EPSILON
        else:
            action_symbol = make_symbol(action)
        if self.vocabulary.actions:
            unknown = action_symbol - self.vocabulary.actions
            if unknown:
                raise AutomatonError(f"unknown actions {sorted(unknown)} in transition from {source!r}")
        transition = ControllerTransition(source, guard, action_symbol, target)
        self._transitions.append(transition)
        return transition

    # ------------------------------------------------------------------ #
    # Inspection
    # ------------------------------------------------------------------ #
    @property
    def states(self) -> list:
        return list(self._states)

    @property
    def num_states(self) -> int:
        return len(self._states)

    @property
    def transitions(self) -> list:
        return list(self._transitions)

    @property
    def num_transitions(self) -> int:
        return len(self._transitions)

    def transitions_from(self, state: str) -> list:
        """All transitions leaving ``state``."""
        return [t for t in self._transitions if t.source == state]

    def enabled_transitions(self, state: str, observation: Symbol) -> list:
        """Transitions from ``state`` whose guard holds for ``observation``."""
        return [t for t in self.transitions_from(state) if t.guard.evaluate(observation)]

    def step(self, state: str, observation: Symbol) -> list:
        """Non-deterministic step: list of ``(action, next_state)`` pairs."""
        return [(t.action, t.target) for t in self.enabled_transitions(state, observation)]

    # ------------------------------------------------------------------ #
    # Structural checks
    # ------------------------------------------------------------------ #
    def blocking_pairs(self, symbols: Iterable[Symbol]) -> list:
        """(state, symbol) pairs with no enabled transition — potential deadlocks."""
        out = []
        for state in self._states:
            for symbol in symbols:
                if not self.enabled_transitions(state, symbol):
                    out.append((state, symbol))
        return out

    def validate(self) -> None:
        """Raise :class:`AutomatonError` on structural problems."""
        if not self._states:
            raise AutomatonError("controller has no states")
        if self.initial_state not in self._states:
            raise AutomatonError(f"initial state {self.initial_state!r} is not a controller state")
        for t in self._transitions:
            if t.source not in self._states or t.target not in self._states:
                raise AutomatonError(f"transition {t} references unknown states")

    def describe(self) -> str:
        """Readable multi-line rendering used by the examples."""
        lines = [f"Controller {self.name}: {self.num_states} states, {self.num_transitions} transitions"]
        for state in self._states:
            mark = ">" if state == self.initial_state else " "
            lines.append(f" {mark}{state}")
            for t in self.transitions_from(state):
                lines.append(f"     --({t.guard}, {format_symbol(t.action)})--> {t.target}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FSAController(name={self.name!r}, states={self.num_states}, "
            f"transitions={self.num_transitions}, initial={self.initial_state!r})"
        )
