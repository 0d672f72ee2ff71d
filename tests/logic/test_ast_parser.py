"""Tests for the LTL AST and parser."""

import pytest

from repro.errors import LTLSyntaxError
from repro.logic import (
    A,
    And,
    Atom,
    Eventually,
    F,
    G,
    Always,
    Implies,
    Next,
    Not,
    Or,
    Release,
    Until,
    conjunction,
    parse_ltl,
)


class TestAST:
    def test_atom_canonicalisation(self):
        assert Atom("Car From Left").name == "car_from_left"

    def test_atoms_collects_all(self):
        formula = G(Implies(A("ped"), F(A("stop"))))
        assert formula.atoms() == frozenset({"ped", "stop"})

    def test_operator_sugar(self):
        formula = (A("a") & A("b")) | ~A("c")
        assert isinstance(formula, Or)
        assert isinstance(formula.right, Not)

    def test_implication_sugar(self):
        assert isinstance(A("a") >> A("b"), Implies)

    def test_size_and_walk(self):
        formula = G(Implies(A("a"), F(A("b"))))
        assert formula.size() == 5
        assert len(list(formula.walk())) == 5

    def test_conjunction_helper(self):
        assert str(conjunction([])) == "true"
        assert conjunction([A("a"), A("b")]).atoms() == frozenset({"a", "b"})

    def test_str_roundtrips_through_parser(self):
        formula = G(Implies(A("a") & A("b"), Until(A("c"), A("d"))))
        assert parse_ltl(str(formula)) == formula


class TestParser:
    def test_simple_always(self):
        assert parse_ltl("G p") == Always(Atom("p"))

    def test_unicode_paper_notation(self):
        formula = parse_ltl("□(pedestrian → (♢ stop))")
        assert formula == Always(Implies(Atom("pedestrian"), Eventually(Atom("stop"))))

    def test_multi_word_atoms(self):
        formula = parse_ltl("G( car from left -> ! turn right )")
        assert formula.atoms() == frozenset({"car_from_left", "turn_right"})

    def test_next_operator(self):
        assert parse_ltl("X p") == Next(Atom("p"))

    def test_until_right_associative(self):
        formula = parse_ltl("a U b U c")
        assert isinstance(formula, Until)
        assert isinstance(formula.right, Until)

    def test_release(self):
        assert isinstance(parse_ltl("a R b"), Release)

    def test_weak_until_expansion(self):
        formula = parse_ltl("a W b")
        assert isinstance(formula, Or)

    def test_implication_right_associative(self):
        formula = parse_ltl("a -> b -> c")
        assert isinstance(formula, Implies)
        assert isinstance(formula.right, Implies)

    def test_precedence_and_tighter_than_or(self):
        formula = parse_ltl("a | b & c")
        assert isinstance(formula, Or)
        assert isinstance(formula.right, And)

    def test_iff_expands_to_two_implications(self):
        formula = parse_ltl("a <-> b")
        assert isinstance(formula, And)

    def test_constants(self):
        assert str(parse_ltl("true")) == "true"
        assert str(parse_ltl("false")) == "false"

    @pytest.mark.parametrize("text", ["", "   ", "(a", "a &", "U b", "a -> ", "G"])
    def test_syntax_errors(self, text):
        with pytest.raises(LTLSyntaxError):
            parse_ltl(text)

    @pytest.mark.parametrize("name", [f"phi_{i}" for i in range(1, 16)])
    def test_all_paper_specifications_parse(self, name):
        from repro.driving.specifications import SPECIFICATION_TEXTS

        formula = parse_ltl(SPECIFICATION_TEXTS[name])
        assert formula.atoms()
