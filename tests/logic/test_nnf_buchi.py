"""Tests for negation normal form and the LTL→Büchi translation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.logic import Atom, F, G, Not, Release, Until, X, is_nnf, negate, parse_ltl, to_nnf
from repro.logic.ltl2buchi import ltl_to_buchi, ltl_to_generalized_buchi
from repro.logic.nnf import eliminate_derived_operators


class TestNNF:
    def test_eliminates_implication(self):
        formula = eliminate_derived_operators(parse_ltl("a -> b"))
        assert "->" not in str(formula)

    def test_eventually_becomes_until(self):
        assert isinstance(eliminate_derived_operators(F(Atom("a"))), Until)

    def test_always_becomes_release(self):
        assert isinstance(eliminate_derived_operators(G(Atom("a"))), Release)

    def test_double_negation_removed(self):
        assert to_nnf(Not(Not(Atom("a")))) == Atom("a")

    def test_negated_until_becomes_release(self):
        formula = to_nnf(Not(Until(Atom("a"), Atom("b"))))
        assert isinstance(formula, Release)

    def test_nnf_predicate(self):
        assert is_nnf(to_nnf(parse_ltl("G(a -> F b)")))
        assert not is_nnf(parse_ltl("G(a -> F b)"))

    def test_negate_is_nnf(self):
        assert is_nnf(negate(parse_ltl("G(ped -> F stop)")))

    @given(st.sampled_from(["a", "!a", "a & b", "a | !b", "X a", "F a", "G a", "a U b", "a R b", "a -> b"]))
    def test_to_nnf_always_produces_nnf(self, text):
        assert is_nnf(to_nnf(parse_ltl(text)))


class TestLTLToBuchi:
    def test_atomic_formula_automaton(self):
        nba = ltl_to_buchi(parse_ltl("p"))
        assert nba.num_states > 0
        assert nba.initial_states

    def test_gba_has_acceptance_set_per_until(self):
        gba = ltl_to_generalized_buchi(parse_ltl("(a U b) & (c U d)"))
        assert len(gba.acceptance_sets) == 2

    def test_no_until_means_all_accepting(self):
        nba = ltl_to_buchi(parse_ltl("G a"))
        assert nba.accepting_states == nba.states

    def test_automaton_size_reasonable(self):
        nba = ltl_to_buchi(parse_ltl("G(a -> F b)"))
        assert nba.num_states <= 32

    @pytest.mark.parametrize("text", ["G a", "F a", "a U b", "G(a -> F b)", "G(a -> X b)", "F G a"])
    def test_translation_produces_valid_automata(self, text):
        nba = ltl_to_buchi(parse_ltl(text))
        nba.validate()
        assert nba.transitions

    @settings(max_examples=25, deadline=None)
    @given(
        st.sampled_from(["G(a -> F b)", "G(a -> !b)", "F a", "G a", "a U b"]),
        st.lists(st.sets(st.sampled_from(["a", "b"]), max_size=2), min_size=1, max_size=5),
    )
    def test_translation_agrees_with_finite_semantics_on_lassos(self, text, prefix):
        """Checking φ on a lasso word via the NBA (through the model checker)
        agrees with direct evaluation of the lasso's infinite unrolling being
        approximated by LTLf on a long finite unrolling for safety formulas.

        This is a smoke-level semantic consistency check; the precise
        equivalence is exercised in the model-checker tests.
        """
        from repro.automata import KripkeStructure
        from repro.modelcheck import ModelChecker

        formula = parse_ltl(text)
        # Build a single-lasso Kripke structure from the prefix (last state loops).
        kripke = KripkeStructure(name="lasso")
        for i, symbol in enumerate(prefix):
            kripke.add_state(i, frozenset(symbol), initial=(i == 0))
        for i in range(len(prefix) - 1):
            kripke.add_transition(i, i + 1)
        kripke.add_transition(len(prefix) - 1, len(prefix) - 1)
        result = ModelChecker().check(kripke, formula)

        from repro.logic import evaluate_trace

        unrolled = list(prefix) + [prefix[-1]] * 40
        finite_verdict = evaluate_trace(formula, unrolled)
        if "F" not in text and "U" not in text:
            # For safety-shaped formulas finite and infinite verdicts coincide.
            assert result.holds == finite_verdict
