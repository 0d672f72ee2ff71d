"""Tests for propositional guards and the guard parser."""

import pytest
from hypothesis import given, strategies as st

from repro.automata.guards import (
    FALSE,
    TRUE,
    GuardAnd,
    GuardNot,
    GuardOr,
    atom,
    conj,
    disj,
    parse_guard,
)
from repro.errors import AutomatonError


class TestGuardEvaluation:
    def test_true_and_false(self):
        assert TRUE.evaluate(frozenset())
        assert not FALSE.evaluate(frozenset({"a"}))

    def test_atom_membership(self):
        assert atom("green").evaluate(frozenset({"green"}))
        assert not atom("green").evaluate(frozenset({"red"}))

    def test_not(self):
        guard = ~atom("green")
        assert guard.evaluate(frozenset())
        assert not guard.evaluate(frozenset({"green"}))

    def test_and_or_operators(self):
        guard = atom("a") & ~atom("b")
        assert guard.evaluate(frozenset({"a"}))
        assert not guard.evaluate(frozenset({"a", "b"}))
        guard = atom("a") | atom("b")
        assert guard.evaluate(frozenset({"b"}))
        assert not guard.evaluate(frozenset())

    def test_atoms_collection(self):
        guard = parse_guard("a & (b | !c)")
        assert guard.atoms() == frozenset({"a", "b", "c"})

    def test_conj_disj_simplification(self):
        assert conj() is TRUE
        assert disj() is FALSE
        assert conj(TRUE, atom("a")).evaluate(frozenset({"a"}))
        assert conj(FALSE, atom("a")) is FALSE
        assert disj(TRUE, atom("a")) is TRUE


class TestGuardParser:
    def test_single_atom(self):
        assert parse_guard("green_light").evaluate(frozenset({"green_light"}))

    def test_precedence_not_over_and_over_or(self):
        guard = parse_guard("a | b & !c")
        # parsed as a | (b & (!c))
        assert guard.evaluate(frozenset({"a", "c"}))
        assert guard.evaluate(frozenset({"b"}))
        assert not guard.evaluate(frozenset({"b", "c"}))

    def test_parentheses(self):
        guard = parse_guard("(a | b) & c")
        assert guard.evaluate(frozenset({"a", "c"}))
        assert not guard.evaluate(frozenset({"a"}))

    def test_unicode_connectives(self):
        guard = parse_guard("green ∧ ¬ped")
        assert guard.evaluate(frozenset({"green"}))
        assert not guard.evaluate(frozenset({"green", "ped"}))

    def test_true_false_keywords(self):
        assert parse_guard("true").evaluate(frozenset())
        assert not parse_guard("false").evaluate(frozenset({"x"}))

    def test_roundtrip_through_str(self):
        guard = parse_guard("a & !(b | c)")
        reparsed = parse_guard(str(guard))
        for symbol in [frozenset(), frozenset({"a"}), frozenset({"a", "b"}), frozenset({"b", "c"})]:
            assert guard.evaluate(symbol) == reparsed.evaluate(symbol)

    def test_errors(self):
        with pytest.raises(AutomatonError):
            parse_guard("")
        with pytest.raises(AutomatonError):
            parse_guard("(a & b")
        with pytest.raises(AutomatonError):
            parse_guard("a b |")

    @given(st.sets(st.sampled_from(["a", "b", "c"]), max_size=3))
    def test_de_morgan_property(self, symbol):
        """!(a & b) ≡ !a | !b on every symbol (property-based)."""
        left = GuardNot(GuardAnd((atom("a"), atom("b"))))
        right = GuardOr((GuardNot(atom("a")), GuardNot(atom("b"))))
        assert left.evaluate(frozenset(symbol)) == right.evaluate(frozenset(symbol))
