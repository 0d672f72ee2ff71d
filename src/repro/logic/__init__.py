"""Linear temporal logic: AST, parser, normal forms, automata translation, LTLf.

Import layering note: :mod:`repro.logic.ltl2buchi` depends on
:mod:`repro.automata.buchi`; the automata package never imports from
:mod:`repro.logic`, so there is no import cycle.
"""

from repro.logic.ast import (
    FALSE,
    TRUE,
    A,
    And,
    Atom,
    Eventually,
    F,
    FalseFormula,
    Formula,
    G,
    Always,
    Implies,
    Next,
    Not,
    Or,
    R,
    Release,
    TrueFormula,
    U,
    Until,
    X,
    conjunction,
)
from repro.logic.finite_trace import evaluate_trace, normalize_trace, satisfaction_fraction
from repro.logic.ltl2buchi import ltl_to_buchi, ltl_to_generalized_buchi
from repro.logic.nnf import is_nnf, negate, to_nnf
from repro.logic.parser import parse_ltl

__all__ = [
    "FALSE",
    "TRUE",
    "A",
    "And",
    "Atom",
    "Eventually",
    "F",
    "FalseFormula",
    "Formula",
    "G",
    "Always",
    "Implies",
    "Next",
    "Not",
    "Or",
    "R",
    "Release",
    "TrueFormula",
    "U",
    "Until",
    "X",
    "conjunction",
    "evaluate_trace",
    "normalize_trace",
    "satisfaction_fraction",
    "ltl_to_buchi",
    "ltl_to_generalized_buchi",
    "is_nnf",
    "negate",
    "to_nnf",
    "parse_ltl",
]
