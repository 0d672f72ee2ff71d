"""State-labeled Kripke structures — the input format of the model checker.

The product automaton ``M ⊗ C`` of the paper labels *transitions* with
``λ_M(p) ∪ a``.  For automata-theoretic LTL model checking it is convenient to
work with state labels, so :mod:`repro.automata.product` re-encodes the
edge-labeled product as a Kripke structure whose states carry the combined
proposition/action label of the step being taken.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable, Iterator

from repro.automata.alphabet import Symbol, format_symbol, make_symbol
from repro.errors import AutomatonError


@dataclass
class KripkeStructure:
    """A finite Kripke structure ``(S, S0, R, L)`` over atomic propositions."""

    name: str = "kripke"
    _labels: dict = field(default_factory=dict)      # state -> Symbol
    _successors: dict = field(default_factory=dict)  # state -> set[state]
    initial_states: set = field(default_factory=set)

    def add_state(self, state: Hashable, label: Iterable[str], *, initial: bool = False) -> Hashable:
        """Add a state with its label; states may be any hashable value."""
        symbol = label if isinstance(label, frozenset) else make_symbol(label)
        existing = self._labels.get(state)
        if existing is not None and existing != symbol:
            raise AutomatonError(f"state {state!r} already exists with a different label")
        self._labels[state] = symbol
        self._successors.setdefault(state, set())
        if initial:
            self.initial_states.add(state)
        return state

    def add_transition(self, src: Hashable, dst: Hashable) -> None:
        """Add ``src → dst``; both states must exist."""
        for s in (src, dst):
            if s not in self._labels:
                raise AutomatonError(f"unknown state {s!r} in Kripke transition")
        self._successors[src].add(dst)

    @property
    def states(self) -> list:
        return list(self._labels)

    @property
    def num_states(self) -> int:
        return len(self._labels)

    @property
    def num_transitions(self) -> int:
        return sum(len(v) for v in self._successors.values())

    def label(self, state: Hashable) -> Symbol:
        try:
            return self._labels[state]
        except KeyError as exc:
            raise AutomatonError(f"unknown state {state!r}") from exc

    def successors(self, state: Hashable) -> frozenset:
        if state not in self._labels:
            raise AutomatonError(f"unknown state {state!r}")
        return frozenset(self._successors.get(state, ()))

    def transitions(self) -> Iterator[tuple]:
        for src, dsts in self._successors.items():
            for dst in dsts:
                yield (src, dst)

    def deadlock_states(self) -> set:
        """States with no successor (the transition relation is not total there)."""
        return {s for s, succ in self._successors.items() if not succ}

    def make_total(self) -> int:
        """Add self-loops on deadlock states so every path is infinite.

        Mirrors NuSMV's requirement of a total transition relation; returns the
        number of self-loops added.
        """
        deadlocks = self.deadlock_states()
        for s in deadlocks:
            self._successors[s].add(s)
        return len(deadlocks)

    def atoms(self) -> frozenset:
        """All atomic propositions appearing in any label."""
        out = frozenset()
        for label in self._labels.values():
            out |= label
        return out

    def validate(self) -> None:
        if not self.initial_states:
            raise AutomatonError(f"Kripke structure {self.name!r} has no initial state")
        for s in self.initial_states:
            if s not in self._labels:
                raise AutomatonError(f"initial state {s!r} is not a state")

    def describe(self, limit: int = 50) -> str:
        """Readable rendering (truncated to ``limit`` states)."""
        lines = [f"Kripke {self.name}: {self.num_states} states, {self.num_transitions} transitions"]
        for state in self.states[:limit]:
            mark = "*" if state in self.initial_states else " "
            lines.append(f"  {mark}{state}: {format_symbol(self.label(state))}")
        if self.num_states > limit:
            lines.append(f"  ... ({self.num_states - limit} more states)")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"KripkeStructure(name={self.name!r}, states={self.num_states}, transitions={self.num_transitions})"
