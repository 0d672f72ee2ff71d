"""LTL on lasso words: the translation and both checkers against the semantics.

The differential and fuzz suites compare the optimized checker with
:class:`NaiveModelChecker`, but both build their automata with
:func:`ltl_to_buchi`, so a translation that is wrong the same way in both
would pass them.  Here the reference is the textbook semantics of LTL on an
ultimately periodic word ``prefix · cycle^ω``, evaluated position by position
(``U`` as a least and ``R`` as a greatest fixpoint over the lasso's
positions).  Each case checks that

* the NBA for ``φ`` accepts the word iff the word satisfies ``φ``, and
* both checkers, run on the word as a one-path Kripke structure, report
  ``holds`` iff the word satisfies ``φ``.
"""

import random

import pytest

from repro.automata import KripkeStructure
from repro.driving import all_specifications
from repro.logic import (
    FALSE,
    TRUE,
    Always,
    And,
    Atom,
    Eventually,
    FalseFormula,
    Implies,
    Next,
    Not,
    Or,
    Release,
    TrueFormula,
    Until,
    ltl_to_buchi,
    parse_ltl,
)
from repro.modelcheck import ModelChecker, NaiveModelChecker
from repro.modelcheck.fastpath import BuchiMemo, automaton_accepts_lasso


def _fixpoint(step, start):
    current = start
    while True:
        following = step(current)
        if following == current:
            return current
        current = following


def lasso_holds(formula, prefix, cycle) -> bool:
    """Does ``prefix · cycle^ω`` satisfy ``formula`` (standard LTL semantics)?"""
    word = [frozenset(symbol) for symbol in list(prefix) + list(cycle)]
    n = len(word)
    successor = list(range(1, n)) + [len(prefix)]

    def values(node) -> list:
        if isinstance(node, TrueFormula):
            return [True] * n
        if isinstance(node, FalseFormula):
            return [False] * n
        if isinstance(node, Atom):
            return [node.name in symbol for symbol in word]
        if isinstance(node, Not):
            return [not v for v in values(node.operand)]
        if isinstance(node, Next):
            inner = values(node.operand)
            return [inner[successor[i]] for i in range(n)]
        if isinstance(node, Eventually):
            return values(Until(TRUE, node.operand))
        if isinstance(node, Always):
            return values(Release(FALSE, node.operand))
        left, right = values(node.left), values(node.right)
        if isinstance(node, And):
            return [a and b for a, b in zip(left, right)]
        if isinstance(node, Or):
            return [a or b for a, b in zip(left, right)]
        if isinstance(node, Implies):
            return [(not a) or b for a, b in zip(left, right)]
        if isinstance(node, Until):
            return _fixpoint(
                lambda cur: [right[i] or (left[i] and cur[successor[i]]) for i in range(n)],
                [False] * n,
            )
        if isinstance(node, Release):
            return _fixpoint(
                lambda cur: [right[i] and (left[i] or cur[successor[i]]) for i in range(n)],
                [True] * n,
            )
        raise TypeError(f"unknown formula node {node!r}")

    return values(formula)[0]


def lasso_kripke(prefix, cycle) -> KripkeStructure:
    """The word ``prefix · cycle^ω`` as a one-path Kripke structure."""
    word = list(prefix) + list(cycle)
    kripke = KripkeStructure(name="lasso")
    for i, symbol in enumerate(word):
        kripke.add_state(i, frozenset(symbol), initial=i == 0)
    for i in range(len(word) - 1):
        kripke.add_transition(i, i + 1)
    kripke.add_transition(len(word) - 1, len(prefix))
    return kripke


def random_lasso(rng: random.Random, atoms) -> tuple:
    atoms = sorted(atoms)

    def symbol():
        return frozenset(a for a in atoms if rng.random() < 0.5)

    prefix = [symbol() for _ in range(rng.randrange(0, 4))]
    cycle = [symbol() for _ in range(rng.randrange(1, 4))]
    return prefix, cycle


def assert_agrees_with_semantics(formula, prefix, cycle, fast, naive) -> bool:
    expected = lasso_holds(formula, prefix, cycle)
    case = f"{formula} on {[sorted(s) for s in prefix]} · {[sorted(s) for s in cycle]}^ω"
    assert automaton_accepts_lasso(ltl_to_buchi(formula), prefix, cycle) == expected, case
    kripke = lasso_kripke(prefix, cycle)
    assert fast.check(kripke, formula).holds == expected, case
    assert naive.check(kripke, formula).holds == expected, case
    return expected


@pytest.mark.parametrize(
    "text,prefix,cycle,expected",
    [
        pytest.param("G F a", [], [{"a"}, set()], True, id="GF-holds-on-alternation"),
        pytest.param("F G a", [], [{"a"}, set()], False, id="FG-fails-on-alternation"),
        pytest.param("F G a", [set(), set()], [{"a"}], True, id="FG-holds-after-prefix"),
        pytest.param("a U b", [{"a"}, {"a"}], [{"b"}], True, id="until-reached"),
        pytest.param("a U b", [], [{"a"}], False, id="until-never-reached"),
        pytest.param("a R b", [], [{"b"}], True, id="release-b-forever"),
        pytest.param("a R b", [{"b"}], [set()], False, id="release-b-dropped"),
        pytest.param("X X a", [set(), set()], [{"a"}], True, id="next-next"),
        pytest.param("G (a -> X b)", [{"a"}], [{"b"}, {"a", "b"}], True, id="response-holds"),
        pytest.param("G (a -> X b)", [], [{"a"}, set()], False, id="response-fails"),
    ],
)
def test_hand_checked_lassos(text, prefix, cycle, expected):
    """Verdicts worked out by hand, so the reference semantics is checked too."""
    prefix = [frozenset(s) for s in prefix]
    cycle = [frozenset(s) for s in cycle]
    fast = ModelChecker(memo=BuchiMemo())
    naive = NaiveModelChecker()
    assert lasso_holds(parse_ltl(text), prefix, cycle) == expected
    assert_agrees_with_semantics(parse_ltl(text), prefix, cycle, fast, naive)


SPEC_NAMES = [f"phi_{i}" for i in range(1, 16)]


@pytest.mark.parametrize("name", SPEC_NAMES)
def test_paper_specification_matches_lasso_semantics(name):
    formula = all_specifications()[name]
    rng = random.Random(SPEC_NAMES.index(name))
    fast = ModelChecker(memo=BuchiMemo())
    naive = NaiveModelChecker()
    verdicts = set()
    for _ in range(40):
        prefix, cycle = random_lasso(rng, formula.atoms())
        verdicts.add(assert_agrees_with_semantics(formula, prefix, cycle, fast, naive))
    # The sample is not vacuous: it holds on some words and fails on others.
    assert verdicts == {True, False}


ATOMS = ("a", "b", "c")


def random_formula(rng: random.Random, depth: int):
    """A random formula over the full surface grammar, bounded in depth."""
    if depth <= 0 or rng.random() < 0.25:
        roll = rng.random()
        if roll < 0.05:
            return TRUE
        if roll < 0.1:
            return FALSE
        return Atom(rng.choice(ATOMS))
    shape = rng.randrange(9)
    if shape < 4:
        unary = (Not, Next, Eventually, Always)[shape]
        return unary(random_formula(rng, depth - 1))
    binary = (And, Or, Implies, Until, Release)[shape - 4]
    return binary(random_formula(rng, depth - 1), random_formula(rng, depth - 1))


@pytest.mark.parametrize("seed", range(6))
def test_random_formula_matches_lasso_semantics(seed):
    rng = random.Random(seed)
    fast = ModelChecker(memo=BuchiMemo())
    naive = NaiveModelChecker()
    for _ in range(25):
        formula = random_formula(rng, depth=rng.randrange(1, 4))
        prefix, cycle = random_lasso(rng, ATOMS)
        assert_agrees_with_semantics(formula, prefix, cycle, fast, naive)
