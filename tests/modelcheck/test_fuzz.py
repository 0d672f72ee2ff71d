"""Property/fuzz tests: random LTL × random Kripke structures, fast vs naive.

A seeded generator draws bounded-depth formulas over the spec grammar and
small random Kripke structures; the optimized checker must agree with the
naive reference on every ``holds`` verdict, checked one formula at a time
and in batches that mix weak and non-weak automata, repeated formulas must
hit the construction memo, and pruning must preserve the language on every
reported lasso.  A small fixed seed set runs in tier-1; the 200-case sweep rides
behind the ``slow`` marker (``pytest -m slow``).
"""

import random

import pytest

from repro.automata import KripkeStructure
from repro.logic.ast import And, Atom, Formula, Next, Not, Or, Release, Until
from repro.logic.ltl2buchi import formula_key, ltl_to_buchi
from repro.modelcheck import ModelChecker, NaiveModelChecker
from repro.modelcheck.fastpath import BuchiMemo, automaton_accepts_lasso, prune_automaton

ATOMS = ("a", "b", "c")


def random_formula(rng: random.Random, depth: int) -> Formula:
    """A random formula over the spec grammar, with bounded operator depth."""
    if depth <= 0 or rng.random() < 0.3:
        atom = Atom(rng.choice(ATOMS))
        return Not(atom) if rng.random() < 0.4 else atom
    shape = rng.randrange(6)
    if shape == 0:
        return And(random_formula(rng, depth - 1), random_formula(rng, depth - 1))
    if shape == 1:
        return Or(random_formula(rng, depth - 1), random_formula(rng, depth - 1))
    if shape == 2:
        return Next(random_formula(rng, depth - 1))
    if shape == 3:
        return Until(random_formula(rng, depth - 1), random_formula(rng, depth - 1))
    if shape == 4:
        return Release(random_formula(rng, depth - 1), random_formula(rng, depth - 1))
    return Not(random_formula(rng, depth - 1))


def random_kripke(rng: random.Random, max_states: int = 6) -> KripkeStructure:
    """A small random Kripke structure; every state gets at least one successor."""
    n = rng.randrange(2, max_states + 1)
    kripke = KripkeStructure(name="fuzz")
    for i in range(n):
        label = frozenset(atom for atom in ATOMS if rng.random() < 0.4)
        kripke.add_state(i, label, initial=(i == 0))
    for i in range(n):
        successors = rng.sample(range(n), rng.randrange(1, min(3, n) + 1))
        for j in successors:
            kripke.add_transition(i, j)
    return kripke


#: Random formulas checked together on each structure by ``check_all``.
BATCH = 6


def run_cases(seed: int, cases: int) -> None:
    rng = random.Random(seed)
    batch_rng = random.Random(f"{seed}-batch")
    naive = NaiveModelChecker()
    memo = BuchiMemo()
    fast = ModelChecker(memo=memo)
    weak_flags: set = set()
    for _ in range(cases):
        formula = random_formula(rng, depth=rng.randrange(1, 4))
        kripke = random_kripke(rng)
        naive_result = naive.check(kripke, formula)
        fast_result = fast.check(kripke, formula)
        assert fast_result.holds == naive_result.holds, (
            f"divergence on {formula} over {kripke.name}: "
            f"naive={naive_result.holds} fast={fast_result.holds}"
        )
        if not fast_result.holds:
            assert fast_result.counterexample is not None
        # A batch decides its weak automata in one shared pass and every
        # other one by its own search; deeper formulas make non-weak ones.
        batch = [random_formula(batch_rng, depth=batch_rng.randrange(1, 5)) for _ in range(BATCH)]
        report = fast.check_all(kripke, batch)
        for batch_formula, result in zip(batch, report.results):
            assert result.holds == naive.check(kripke, batch_formula).holds, (
                f"batch divergence on {batch_formula} over {kripke.name}"
            )
            if not result.holds:
                assert result.counterexample is not None
            automaton = memo.lookup(formula_key(Not(batch_formula)))
            if not automaton.is_empty:
                weak_flags.add(automaton.weak)
    assert weak_flags == {True, False}, "the batches never mixed weak and non-weak automata"


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fast_matches_naive_on_fixed_seeds(seed):
    run_cases(seed, cases=25)


@pytest.mark.slow
@pytest.mark.parametrize("seed", [7, 11])
def test_fast_matches_naive_on_the_full_sweep(seed):
    run_cases(seed, cases=100)


def test_repeat_formulas_hit_the_memo():
    rng = random.Random(42)
    memo = BuchiMemo()
    fast = ModelChecker(memo=memo)
    formula = random_formula(rng, depth=3)
    for _ in range(3):
        fast.check(random_kripke(rng), formula)
    stats = memo.stats()
    assert stats["misses"] == 1
    assert stats["hits_memory"] == 2


def test_pruning_preserves_reported_violations():
    """Every lasso the naive path reports is accepted by raw AND pruned ¬Φ NBA."""
    rng = random.Random(3)
    naive = NaiveModelChecker()
    checked = 0
    while checked < 10:
        formula = random_formula(rng, depth=rng.randrange(1, 4))
        kripke = random_kripke(rng)
        result = naive.check(kripke, formula)
        if result.holds:
            continue
        checked += 1
        ce = result.counterexample
        prefix = [step.label for step in ce.prefix]
        cycle = [step.label for step in ce.cycle]
        raw = ltl_to_buchi(Not(formula))
        assert automaton_accepts_lasso(raw, prefix, cycle)
        assert automaton_accepts_lasso(prune_automaton(raw), prefix, cycle)


def test_structurally_equal_formulas_share_a_key():
    rng = random.Random(5)
    for _ in range(20):
        formula = random_formula(rng, depth=3)
        rebuilt = eval(  # noqa: S307 - repr of these dataclasses is constructor syntax
            repr(formula),
            {
                "And": And, "Or": Or, "Not": Not, "Next": Next,
                "Until": Until, "Release": Release, "Atom": Atom,
            },
        )
        assert formula_key(rebuilt) == formula_key(formula)
