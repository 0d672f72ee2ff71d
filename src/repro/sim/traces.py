"""Execution traces collected from the driving simulator.

A trace is the sequence ``(2^P × 2^PA)^N`` of Section 4.2: at every tick the
propositions observed by the ego vehicle and the action its controller chose.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.automata.alphabet import Symbol, format_symbol


@dataclass(frozen=True)
class TraceStep:
    """One tick of a rollout: observed propositions and the chosen action symbol."""

    observations: Symbol
    actions: Symbol

    @property
    def combined(self) -> Symbol:
        """``observations ∪ actions`` — the symbol LTL formulas are evaluated on."""
        return frozenset(self.observations) | frozenset(self.actions)

    def __str__(self) -> str:
        return f"({format_symbol(self.observations)}, {format_symbol(self.actions)})"


@dataclass
class Trace:
    """A finite rollout of a controller in the simulator."""

    steps: list = field(default_factory=list)
    scenario: str = ""
    controller: str = ""
    seed: int | None = None
    terminated: bool = False

    def append(self, observations, actions) -> None:
        self.steps.append(TraceStep(frozenset(observations), frozenset(actions)))

    def symbols(self) -> list:
        """The combined proposition/action symbols, one per tick (LTLf input)."""
        return [step.combined for step in self.steps]

    def count_action(self, action: str) -> int:
        """How many ticks chose the given action."""
        return sum(1 for step in self.steps if action in step.actions)

    def propositions_seen(self) -> frozenset:
        """Union of all observed propositions."""
        seen = frozenset()
        for step in self.steps:
            seen |= step.observations
        return seen

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self):
        return iter(self.symbols())

    def describe(self, limit: int = 20) -> str:
        lines = [f"Trace({self.controller} in {self.scenario}, {len(self)} steps)"]
        for step in self.steps[:limit]:
            lines.append(f"  {step}")
        if len(self.steps) > limit:
            lines.append(f"  ... ({len(self.steps) - limit} more steps)")
        return "\n".join(lines)
