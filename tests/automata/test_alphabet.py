"""Tests for propositions, symbols and vocabularies."""

import pytest
from hypothesis import given, strategies as st

from repro.automata.alphabet import (
    EPSILON,
    Vocabulary,
    canonical,
    format_symbol,
    make_symbol,
    powerset_symbols,
)
from repro.errors import AutomatonError


class TestCanonical:
    def test_lowercases_and_underscores(self):
        assert canonical("Green Traffic Light") == "green_traffic_light"

    def test_strips_surrounding_whitespace(self):
        assert canonical("  stop sign ") == "stop_sign"

    def test_idempotent(self):
        assert canonical(canonical("Car From Left")) == "car_from_left"

    def test_rejects_empty(self):
        with pytest.raises(AutomatonError):
            canonical("")

    def test_rejects_non_string(self):
        with pytest.raises(AutomatonError):
            canonical(None)

    def test_rejects_embedded_negation(self):
        with pytest.raises(AutomatonError):
            canonical("!green")


class TestSymbols:
    def test_make_symbol_canonicalises(self):
        assert make_symbol(["Green Light", "stop sign"]) == frozenset({"green_light", "stop_sign"})

    def test_epsilon_is_empty(self):
        assert EPSILON == frozenset()

    def test_format_empty_symbol(self):
        assert format_symbol(frozenset()) == "ε"

    def test_format_sorts_members(self):
        assert format_symbol(frozenset({"b", "a"})) == "{a, b}"

    def test_powerset_size(self):
        symbols = list(powerset_symbols(["a", "b", "c"]))
        assert len(symbols) == 8

    def test_powerset_contains_empty_and_full(self):
        symbols = set(powerset_symbols(["a", "b"]))
        assert frozenset() in symbols
        assert frozenset({"a", "b"}) in symbols

    @given(st.sets(st.sampled_from(["a", "b", "c", "d"]), max_size=4))
    def test_powerset_members_are_subsets(self, props):
        for symbol in powerset_symbols(props):
            assert symbol <= frozenset(props)


class TestVocabulary:
    def test_all_atoms_union(self):
        vocab = Vocabulary(propositions=frozenset({"p"}), actions=frozenset({"a"}))
        assert vocab.all_atoms == frozenset({"p", "a"})

    def test_disjointness_enforced(self):
        with pytest.raises(AutomatonError):
            Vocabulary(propositions=frozenset({"x"}), actions=frozenset({"x"}))

    def test_is_proposition_uses_canonical_form(self):
        vocab = Vocabulary(propositions=frozenset({"green light"}))
        assert vocab.is_proposition("Green Light")
        assert not vocab.is_action("Green Light")

    def test_validate_symbol_rejects_unknown(self):
        vocab = Vocabulary(propositions=frozenset({"p"}), actions=frozenset({"a"}))
        with pytest.raises(AutomatonError):
            vocab.validate_symbol(["q"])

    def test_validate_symbol_disallow_actions(self):
        vocab = Vocabulary(propositions=frozenset({"p"}), actions=frozenset({"a"}))
        with pytest.raises(AutomatonError):
            vocab.validate_symbol(["a"], allow_actions=False)
