"""Automata substrate: alphabets, world models, controllers, products, Büchi.

This package implements Section 3 and Appendix A of the paper:

* :mod:`repro.automata.alphabet` — atomic propositions, actions, symbols.
* :mod:`repro.automata.guards` — propositional transition guards.
* :mod:`repro.automata.transition_system` — world models M and Algorithm 1.
* :mod:`repro.automata.fsa` — FSA controllers C.
* :mod:`repro.automata.product` — the product automaton M ⊗ C.
* :mod:`repro.automata.kripke` — state-labeled structures for model checking.
* :mod:`repro.automata.buchi` — (generalized) Büchi automata.
"""

from repro.automata.alphabet import EPSILON, Symbol, Vocabulary, canonical, format_symbol, make_symbol, powerset_symbols
from repro.automata.buchi import BuchiAutomaton, GeneralizedBuchiAutomaton, LabelConstraint
from repro.automata.fsa import ControllerTransition, FSAController
from repro.automata.guards import (
    FALSE,
    TRUE,
    Guard,
    GuardAnd,
    GuardAtom,
    GuardNot,
    GuardOr,
    atom,
    conj,
    disj,
    parse_guard,
)
from repro.automata.kripke import KripkeStructure
from repro.automata.product import ProductState, build_product
from repro.automata.transition_system import (
    TransitionSystem,
    build_model_from_labels,
    build_model_from_system,
)

__all__ = [
    "EPSILON",
    "Symbol",
    "Vocabulary",
    "canonical",
    "format_symbol",
    "make_symbol",
    "powerset_symbols",
    "BuchiAutomaton",
    "GeneralizedBuchiAutomaton",
    "LabelConstraint",
    "ControllerTransition",
    "FSAController",
    "FALSE",
    "TRUE",
    "Guard",
    "GuardAnd",
    "GuardAtom",
    "GuardNot",
    "GuardOr",
    "atom",
    "conj",
    "disj",
    "parse_guard",
    "KripkeStructure",
    "ProductState",
    "build_product",
    "TransitionSystem",
    "build_model_from_labels",
    "build_model_from_system",
]
