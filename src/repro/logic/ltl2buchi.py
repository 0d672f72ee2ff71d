"""LTL → Büchi automaton translation (tableau construction).

Implements the classic on-the-fly construction of Gerth, Peled, Vardi and
Wolper (GPVW, 1995): the formula (in negation normal form over
{literals, ∧, ∨, X, U, R}) is expanded into a graph of *nodes*, each carrying
the obligations ``Old`` (processed formulas), ``New`` (pending formulas) and
``Next`` (obligations for the successor position).  The nodes form a
generalized Büchi automaton with one acceptance set per ``Until`` subformula;
degeneralization yields an ordinary Büchi automaton whose transition into a
node is labeled by the literals of that node.

The resulting automaton reads infinite words over ``2^AP`` and accepts exactly
the models of the formula — the property the model checker relies on.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.automata.buchi import BuchiAutomaton, GeneralizedBuchiAutomaton, LabelConstraint
from repro.logic.ast import (
    And,
    Atom,
    FalseFormula,
    Formula,
    Next,
    Not,
    Or,
    Release,
    TrueFormula,
    Until,
)
from repro.logic.nnf import to_nnf

#: Name of the artificial initial node used by the construction.
INIT_NODE = "__init__"


@dataclass
class _Node:
    """A tableau node of the GPVW construction."""

    node_id: int
    incoming: set = field(default_factory=set)
    new: set = field(default_factory=set)
    old: set = field(default_factory=set)
    next: set = field(default_factory=set)


class _Translator:
    """Stateful GPVW expansion; one instance per translated formula."""

    def __init__(self) -> None:
        self._counter = itertools.count()
        self.nodes: dict[int, _Node] = {}
        # Committed nodes indexed by their (Old, Next) obligations.  The merge
        # step of GPVW folds a fully-expanded node into the existing node with
        # identical obligations; at most one committed node per key can exist
        # (commit only happens after this lookup misses), so the dict lookup
        # replaces the original O(n) scan over all committed nodes without
        # changing which node absorbs the merge.
        self._by_obligations: dict[tuple, _Node] = {}

    def fresh_node(self, incoming: set, new: set, old: set, nxt: set) -> _Node:
        node = _Node(next(self._counter), set(incoming), set(new), set(old), set(nxt))
        return node

    def translate(self, formula: Formula) -> list:
        # Nodes wait on an explicit stack, not the interpreter's: a tableau
        # can nest hundreds of expansions deep.  LIFO order expands them as
        # the recursive formulation would, so node ids and merges match it.
        pending = [self.fresh_node({INIT_NODE}, {formula}, set(), set())]
        while pending:
            self.expand(pending.pop(), pending)
        return list(self.nodes.values())

    # ------------------------------------------------------------------ #
    def expand(self, node: _Node, pending: list) -> None:
        """Expand ``node`` until it is discarded, merged or committed.

        A split continues with its first branch and pushes the second onto
        ``pending``; a commit pushes the node's successor.
        """
        while node.new:
            formula = node.new.pop()
            if isinstance(formula, TrueFormula):
                node.old.add(formula)
            elif isinstance(formula, FalseFormula):
                return  # contradiction: discard this node
            elif isinstance(formula, (Atom, Not)):
                if self._contradicts(formula, node.old):
                    return
                node.old.add(formula)
            elif isinstance(formula, And):
                node.old.add(formula)
                for part in (formula.left, formula.right):
                    if part not in node.old:
                        node.new.add(part)
            elif isinstance(formula, Next):
                node.old.add(formula)
                node.next.add(formula.operand)
            elif isinstance(formula, Or):
                node = self._split(node, formula, pending, new1={formula.left}, next1=set(), new2={formula.right})
            elif isinstance(formula, Until):
                # φ U ψ  ≡  ψ ∨ (φ ∧ X(φ U ψ))
                node = self._split(node, formula, pending, new1={formula.left}, next1={formula}, new2={formula.right})
            elif isinstance(formula, Release):
                # φ R ψ  ≡  (φ ∧ ψ) ∨ (ψ ∧ X(φ R ψ))
                node = self._split(
                    node, formula, pending, new1={formula.right}, next1={formula}, new2={formula.left, formula.right}
                )
            else:
                raise TypeError(f"formula not in negation normal form: {formula!r}")

        # All obligations for this position processed: merge or commit.
        key = (frozenset(node.old), frozenset(node.next))
        existing = self._by_obligations.get(key)
        if existing is not None:
            existing.incoming |= node.incoming
            return
        self.nodes[node.node_id] = node
        self._by_obligations[key] = node
        pending.append(self.fresh_node({node.node_id}, set(node.next), set(), set()))

    def _split(self, node: _Node, formula: Formula, pending: list, *, new1: set, next1: set, new2: set) -> _Node:
        """Branch the node into the two disjuncts of an Or/Until/Release expansion.

        Returns the first branch and pushes the second onto ``pending``.
        """
        node1 = self.fresh_node(
            node.incoming,
            node.new | (new1 - node.old),
            node.old | {formula},
            node.next | next1,
        )
        node2 = self.fresh_node(
            node.incoming,
            node.new | (new2 - node.old),
            node.old | {formula},
            set(node.next),
        )
        pending.append(node2)
        return node1

    @staticmethod
    def _contradicts(literal: Formula, old: set) -> bool:
        if isinstance(literal, Atom):
            return Not(literal) in old
        if isinstance(literal, Not) and isinstance(literal.operand, Atom):
            return literal.operand in old
        return False


def formula_key(formula: Formula) -> str:
    """Canonical text of a formula, usable as a construction-memo key.

    :meth:`Formula.__str__ <repro.logic.ast.Formula>` parenthesizes every
    binary operator, so distinct formula trees never render identically —
    two formulas share a key exactly when they are structurally equal.  The
    fast path's :class:`~repro.modelcheck.fastpath.BuchiMemo` keys its
    translations on this string.
    """
    return str(formula)


def _literal_constraint(old: set) -> LabelConstraint:
    """The conjunction of literals a node requires of the symbol it reads."""
    positive = {f.name for f in old if isinstance(f, Atom)}
    negative = {f.operand.name for f in old if isinstance(f, Not) and isinstance(f.operand, Atom)}
    return LabelConstraint(frozenset(positive), frozenset(negative))


def ltl_to_generalized_buchi(formula: Formula, name: str = "gba") -> GeneralizedBuchiAutomaton:
    """Translate an LTL formula (any form) into a generalized Büchi automaton.

    The returned automaton's transition *into* a node is labeled with the
    node's literal constraint; an artificial initial state ``INIT_NODE``
    precedes the first position.
    """
    nnf = to_nnf(formula)
    translator = _Translator()
    nodes = translator.translate(nnf)

    gba = GeneralizedBuchiAutomaton(name=name)
    gba.add_state(INIT_NODE, initial=True)
    for node in nodes:
        gba.add_state(node.node_id)

    for node in nodes:
        constraint = _literal_constraint(node.old)
        for source in node.incoming:
            gba.add_transition(source, constraint, node.node_id)

    # One acceptance set per Until subformula of the NNF:
    #   F_{φUψ} = { nodes q : ψ ∈ Old(q) or (φUψ) ∉ Old(q) }.
    until_subformulas = [f for f in nnf.walk() if isinstance(f, Until)]
    seen: list = []
    for until in until_subformulas:
        if until in seen:
            continue
        seen.append(until)
        acceptance = {
            node.node_id
            for node in nodes
            if until.right in node.old or until not in node.old
        }
        gba.acceptance_sets.append(acceptance)
    return gba


def ltl_to_buchi(formula: Formula, name: str = "buchi") -> BuchiAutomaton:
    """Translate an LTL formula into a (degeneralized) Büchi automaton."""
    gba = ltl_to_generalized_buchi(formula, name=f"{name}_gba")
    nba = gba.degeneralize()
    nba.name = name
    return nba
