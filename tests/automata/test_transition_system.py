"""Tests for world models and Algorithm 1."""

import pytest
from hypothesis import given, strategies as st

from repro.automata import TransitionSystem, Vocabulary, build_model_from_labels, build_model_from_system
from repro.errors import AutomatonError


@pytest.fixture()
def light_model() -> TransitionSystem:
    vocab = Vocabulary(propositions=frozenset({"green", "yellow", "red"}))
    model = TransitionSystem(name="light", vocabulary=vocab)
    model.add_state("g", ["green"], initial=True)
    model.add_state("y", ["yellow"])
    model.add_state("r", ["red"])
    model.add_transition("g", "r")
    model.add_transition("r", "y")
    model.add_transition("y", "g")
    return model


class TestTransitionSystem:
    def test_counts(self, light_model):
        assert light_model.num_states == 3
        assert light_model.num_transitions == 3

    def test_label_lookup(self, light_model):
        assert light_model.label("g") == frozenset({"green"})

    def test_unknown_state_raises(self, light_model):
        with pytest.raises(AutomatonError):
            light_model.label("missing")
        with pytest.raises(AutomatonError):
            light_model.successors("missing")

    def test_successors_predecessors(self, light_model):
        assert light_model.successors("g") == frozenset({"r"})
        assert light_model.predecessors("g") == frozenset({"y"})

    def test_states_with_label(self, light_model):
        assert light_model.states_with_label(["green"]) == ["g"]

    def test_transition_requires_existing_states(self, light_model):
        with pytest.raises(AutomatonError):
            light_model.add_transition("g", "nowhere")

    def test_conflicting_label_rejected(self, light_model):
        with pytest.raises(AutomatonError):
            light_model.add_state("g", ["red"])

    def test_isolated_state_pruning(self, light_model):
        light_model.add_state("island", ["green", "yellow"])
        assert "island" in light_model.isolated_states()
        removed = light_model.prune_isolated_states()
        assert removed == 1
        assert "island" not in light_model.states

    def test_to_networkx(self, light_model):
        graph = light_model.to_networkx()
        assert graph.number_of_nodes() == 3
        assert graph.number_of_edges() == 3


class TestAlgorithmOne:
    def test_traffic_light_example(self):
        """The paper's red-green-yellow example keeps exactly three states."""
        order = {
            frozenset({"green"}): frozenset({"red"}),
            frozenset({"red"}): frozenset({"yellow"}),
            frozenset({"yellow"}): frozenset({"green"}),
        }
        model = build_model_from_system(
            ["green", "yellow", "red"],
            lambda a, b: order.get(a) == b,
            name="paper_example",
        )
        assert model.num_states == 3
        assert model.num_transitions == 3
        labels = set(model.symbols())
        assert frozenset({"green", "yellow"}) not in labels

    def test_conservative_keeps_everything(self):
        model = build_model_from_system(["a", "b"], lambda a, b: False, conservative=True)
        assert model.num_states == 4
        assert model.num_transitions == 16

    def test_initial_labels_restrict_initial_states(self):
        model = build_model_from_system(
            ["a"],
            lambda x, y: True,
            initial_labels=[["a"]],
        )
        assert all(model.label(s) == frozenset({"a"}) for s in model.initial_states)

    @given(st.integers(min_value=1, max_value=4))
    def test_conservative_state_count_is_power_of_two(self, n):
        props = [f"p{i}" for i in range(n)]
        model = build_model_from_system(props, lambda a, b: True, conservative=True)
        assert model.num_states == 2 ** n


class TestBuildFromLabels:
    def test_build_and_validate(self):
        vocab = Vocabulary(propositions=frozenset({"x"}))
        model = build_model_from_labels(
            "tiny", vocab, {"s0": ["x"], "s1": []}, [("s0", "s1"), ("s1", "s0")], initial_states=["s0"]
        )
        assert model.initial_states == {"s0"}
        assert model.label("s1") == frozenset()

    def test_unknown_initial_state_raises(self):
        vocab = Vocabulary(propositions=frozenset({"x"}))
        with pytest.raises(AutomatonError):
            build_model_from_labels("tiny", vocab, {"s0": ["x"]}, [], initial_states=["nope"])
