"""Automaton-based world models (transition systems).

Implements the model ``M = ⟨Γ_M, Q_M, δ_M, λ_M⟩`` of Section 3 together with
Algorithm 1 from the paper (system modeling): enumerate ``2^P`` candidate
states, keep the transitions the system supports and prune isolated states
(or keep everything under the conservative construction).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

import networkx as nx

from repro.automata.alphabet import Symbol, Vocabulary, make_symbol, powerset_symbols
from repro.errors import AutomatonError


@dataclass
class TransitionSystem:
    """A state-labeled transition system used as an autonomous-system model.

    States carry *labels* ``λ_M(q) ∈ 2^P`` (the environment propositions true
    in that state); transitions are unlabeled pairs of states.

    Parameters
    ----------
    name:
        Human-readable model name (e.g. ``"traffic_light_intersection"``).
    vocabulary:
        The proposition/action vocabulary the model is expressed over.
    """

    name: str = "model"
    vocabulary: Vocabulary = field(default_factory=Vocabulary)
    _labels: dict = field(default_factory=dict)      # state -> Symbol
    _successors: dict = field(default_factory=dict)  # state -> set[state]
    initial_states: set = field(default_factory=set)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_state(self, state: str, label: Iterable[str], *, initial: bool = False) -> str:
        """Add a state with label ``label`` (a set of proposition names)."""
        symbol = self.vocabulary.validate_symbol(label, allow_actions=False) if self.vocabulary.propositions else make_symbol(label)
        if state in self._labels and self._labels[state] != symbol:
            raise AutomatonError(f"state {state!r} already exists with a different label")
        self._labels[state] = symbol
        self._successors.setdefault(state, set())
        if initial:
            self.initial_states.add(state)
        return state

    def add_transition(self, src: str, dst: str) -> None:
        """Add the transition ``src → dst``; both states must already exist."""
        for s in (src, dst):
            if s not in self._labels:
                raise AutomatonError(f"unknown state {s!r} in transition ({src!r}, {dst!r})")
        self._successors[src].add(dst)

    def mark_initial(self, *states: str) -> None:
        """Mark states as possible initial states."""
        for s in states:
            if s not in self._labels:
                raise AutomatonError(f"unknown initial state {s!r}")
            self.initial_states.add(s)

    # ------------------------------------------------------------------ #
    # Inspection
    # ------------------------------------------------------------------ #
    @property
    def states(self) -> list:
        """All state names, in insertion order."""
        return list(self._labels)

    @property
    def num_states(self) -> int:
        return len(self._labels)

    @property
    def num_transitions(self) -> int:
        return sum(len(v) for v in self._successors.values())

    def label(self, state: str) -> Symbol:
        """``λ_M(state)``: the propositions true in ``state``."""
        try:
            return self._labels[state]
        except KeyError as exc:
            raise AutomatonError(f"unknown state {state!r}") from exc

    def successors(self, state: str) -> frozenset:
        """States reachable from ``state`` in one transition."""
        if state not in self._labels:
            raise AutomatonError(f"unknown state {state!r}")
        return frozenset(self._successors.get(state, ()))

    def predecessors(self, state: str) -> frozenset:
        """States with a transition into ``state``."""
        if state not in self._labels:
            raise AutomatonError(f"unknown state {state!r}")
        return frozenset(s for s, succ in self._successors.items() if state in succ)

    def transitions(self) -> list:
        """All transitions as ``(src, dst)`` pairs."""
        return [(s, d) for s, dsts in self._successors.items() for d in sorted(dsts)]

    def states_with_label(self, label: Iterable[str]) -> list:
        """All states whose label equals ``label``."""
        symbol = make_symbol(label)
        return [s for s, lab in self._labels.items() if lab == symbol]

    def symbols(self) -> set:
        """The set of labels Γ_M actually used."""
        return set(self._labels.values())

    # ------------------------------------------------------------------ #
    # Algorithm-1 post-processing
    # ------------------------------------------------------------------ #
    def isolated_states(self) -> set:
        """States with neither incoming nor outgoing transitions (Algorithm 1)."""
        has_out = {s for s, succ in self._successors.items() if succ}
        has_in = {d for succ in self._successors.values() for d in succ}
        return {s for s in self._labels if s not in has_out and s not in has_in}

    def prune_isolated_states(self) -> int:
        """Remove isolated states in place; return how many were removed."""
        isolated = self.isolated_states()
        for s in isolated:
            del self._labels[s]
            self._successors.pop(s, None)
            self.initial_states.discard(s)
        for succ in self._successors.values():
            succ.difference_update(isolated)
        return len(isolated)

    def validate(self) -> None:
        """Raise :class:`AutomatonError` if the model is structurally inconsistent."""
        for src, dsts in self._successors.items():
            if src not in self._labels:
                raise AutomatonError(f"transition source {src!r} is not a state")
            for dst in dsts:
                if dst not in self._labels:
                    raise AutomatonError(f"transition target {dst!r} is not a state")
        for s in self.initial_states:
            if s not in self._labels:
                raise AutomatonError(f"initial state {s!r} is not a state")

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #
    def to_networkx(self) -> nx.DiGraph:
        """Export to a :class:`networkx.DiGraph` with ``label`` node attributes."""
        graph = nx.DiGraph(name=self.name)
        for state in self.states:
            graph.add_node(state, label=sorted(self.label(state)), initial=state in self.initial_states)
        graph.add_edges_from(self.transitions())
        return graph

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TransitionSystem(name={self.name!r}, states={self.num_states}, "
            f"transitions={self.num_transitions}, initial={sorted(self.initial_states)})"
        )


def build_model_from_system(
    propositions: Iterable[str],
    transition_allowed: Callable[[Symbol, Symbol], bool],
    *,
    name: str = "model",
    vocabulary: Vocabulary | None = None,
    conservative: bool = False,
    initial_labels: Iterable[Iterable[str]] | None = None,
) -> TransitionSystem:
    """Algorithm 1: build a model from propositions and a transition oracle.

    Creates one state per symbol ``σ ∈ 2^P``, adds the transition ``p_i → p_j``
    whenever the system allows moving from ``λ(p_i)`` to ``λ(p_j)``, and prunes
    isolated states.  With ``conservative=True`` every transition is added and
    no state is removed (the conservative construction discussed in Section
    4.1, which avoids missing transitions at higher verification cost).

    Parameters
    ----------
    propositions:
        The atomic proposition set ``P``.
    transition_allowed:
        Oracle ``(σ_i, σ_j) → bool`` answering "does the system S support the
        transition from behaviour σ_i to behaviour σ_j?".  Ignored when
        ``conservative`` is True.
    initial_labels:
        Optional collection of labels whose states become initial; defaults to
        every surviving state.
    """
    props = sorted({p for p in propositions})
    vocab = vocabulary or Vocabulary(propositions=frozenset(props))
    model = TransitionSystem(name=name, vocabulary=vocab)

    symbols = list(powerset_symbols(props))
    state_of: dict[Symbol, str] = {}
    for idx, symbol in enumerate(symbols):
        state = f"p{idx}"
        model.add_state(state, symbol)
        state_of[symbol] = state

    for sym_i in symbols:
        for sym_j in symbols:
            if conservative or transition_allowed(sym_i, sym_j):
                model.add_transition(state_of[sym_i], state_of[sym_j])

    if not conservative:
        model.prune_isolated_states()

    if initial_labels is not None:
        for label in initial_labels:
            for state in model.states_with_label(label):
                model.mark_initial(state)
    else:
        model.mark_initial(*model.states)

    model.validate()
    return model


def build_model_from_labels(
    name: str,
    vocabulary: Vocabulary,
    labels: Mapping[str, Iterable[str]],
    transitions: Iterable[tuple],
    initial_states: Iterable[str] | None = None,
) -> TransitionSystem:
    """Convenience constructor for hand-specified scenario models (Figs. 5-17)."""
    model = TransitionSystem(name=name, vocabulary=vocabulary)
    for state, label in labels.items():
        model.add_state(state, label)
    for src, dst in transitions:
        model.add_transition(src, dst)
    model.mark_initial(*(initial_states if initial_states is not None else labels.keys()))
    model.validate()
    return model
