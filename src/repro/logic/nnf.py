"""Negation normal form (NNF) and basic formula rewrites.

The tableau-based LTL→Büchi translation requires formulas in NNF, i.e.
negations pushed down to atomic propositions, with implications eliminated and
``F``/``G`` rewritten into ``U``/``R``:

* ``F φ  ≡ true U φ``
* ``G φ  ≡ false R φ``
* ``¬(φ U ψ) ≡ ¬φ R ¬ψ`` and dually.
"""

from __future__ import annotations

from repro.logic.ast import (
    And,
    Atom,
    Eventually,
    FALSE,
    FalseFormula,
    Formula,
    Always,
    Implies,
    Next,
    Not,
    Or,
    Release,
    TRUE,
    TrueFormula,
    Until,
)


def eliminate_derived_operators(formula: Formula) -> Formula:
    """Rewrite ``→``, ``F`` and ``G`` into the core operator set {∧, ∨, ¬, X, U, R}."""
    if isinstance(formula, (TrueFormula, FalseFormula, Atom)):
        return formula
    if isinstance(formula, Not):
        return Not(eliminate_derived_operators(formula.operand))
    if isinstance(formula, And):
        return And(eliminate_derived_operators(formula.left), eliminate_derived_operators(formula.right))
    if isinstance(formula, Or):
        return Or(eliminate_derived_operators(formula.left), eliminate_derived_operators(formula.right))
    if isinstance(formula, Implies):
        return Or(
            Not(eliminate_derived_operators(formula.left)),
            eliminate_derived_operators(formula.right),
        )
    if isinstance(formula, Next):
        return Next(eliminate_derived_operators(formula.operand))
    if isinstance(formula, Eventually):
        return Until(TRUE, eliminate_derived_operators(formula.operand))
    if isinstance(formula, Always):
        return Release(FALSE, eliminate_derived_operators(formula.operand))
    if isinstance(formula, Until):
        return Until(eliminate_derived_operators(formula.left), eliminate_derived_operators(formula.right))
    if isinstance(formula, Release):
        return Release(eliminate_derived_operators(formula.left), eliminate_derived_operators(formula.right))
    raise TypeError(f"unknown formula node {formula!r}")


def push_negations(formula: Formula) -> Formula:
    """Push negations to the atoms of a formula over the core operator set."""
    if isinstance(formula, (TrueFormula, FalseFormula, Atom)):
        return formula
    if isinstance(formula, And):
        return And(push_negations(formula.left), push_negations(formula.right))
    if isinstance(formula, Or):
        return Or(push_negations(formula.left), push_negations(formula.right))
    if isinstance(formula, Next):
        return Next(push_negations(formula.operand))
    if isinstance(formula, Until):
        return Until(push_negations(formula.left), push_negations(formula.right))
    if isinstance(formula, Release):
        return Release(push_negations(formula.left), push_negations(formula.right))
    if isinstance(formula, Not):
        inner = formula.operand
        if isinstance(inner, TrueFormula):
            return FALSE
        if isinstance(inner, FalseFormula):
            return TRUE
        if isinstance(inner, Atom):
            return formula
        if isinstance(inner, Not):
            return push_negations(inner.operand)
        if isinstance(inner, And):
            return Or(push_negations(Not(inner.left)), push_negations(Not(inner.right)))
        if isinstance(inner, Or):
            return And(push_negations(Not(inner.left)), push_negations(Not(inner.right)))
        if isinstance(inner, Next):
            return Next(push_negations(Not(inner.operand)))
        if isinstance(inner, Until):
            return Release(push_negations(Not(inner.left)), push_negations(Not(inner.right)))
        if isinstance(inner, Release):
            return Until(push_negations(Not(inner.left)), push_negations(Not(inner.right)))
        raise TypeError(f"cannot push negation through {inner!r}")
    raise TypeError(f"unknown formula node {formula!r}")


def to_nnf(formula: Formula) -> Formula:
    """Full NNF conversion: eliminate derived operators, then push negations."""
    return push_negations(eliminate_derived_operators(formula))


def negate(formula: Formula) -> Formula:
    """The NNF of ``¬formula`` — the input to the model checker's Büchi build."""
    return to_nnf(Not(formula))


def is_nnf(formula: Formula) -> bool:
    """True if negations only appear directly above atoms and no derived ops remain."""
    for node in formula.walk():
        if isinstance(node, (Implies, Eventually, Always)):
            return False
        if isinstance(node, Not) and not isinstance(node.operand, Atom):
            return False
    return True
