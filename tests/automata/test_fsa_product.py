"""Tests for FSA controllers, Kripke structures, and the product automaton."""

import pytest

from repro.automata import FSAController, KripkeStructure, Vocabulary, build_product
from repro.automata.product import ProductState
from repro.errors import AutomatonError


class TestFSAController:
    def test_first_state_becomes_initial(self, simple_vocabulary):
        controller = FSAController(vocabulary=simple_vocabulary)
        controller.add_state("a")
        controller.add_state("b")
        assert controller.initial_state == "a"

    def test_explicit_initial(self, simple_vocabulary):
        controller = FSAController(vocabulary=simple_vocabulary)
        controller.add_state("a")
        controller.add_state("b", initial=True)
        assert controller.initial_state == "b"

    def test_string_guard_and_action(self, simple_vocabulary):
        controller = FSAController(vocabulary=simple_vocabulary)
        controller.add_state("q0")
        transition = controller.add_transition("q0", "green & !ped", "go", "q0")
        assert transition.action == frozenset({"go"})
        assert transition.guard.evaluate(frozenset({"green"}))

    def test_epsilon_action(self, simple_vocabulary):
        controller = FSAController(vocabulary=simple_vocabulary)
        controller.add_state("q0")
        transition = controller.add_transition("q0", "true", None, "q0")
        assert transition.action == frozenset()

    def test_unknown_action_rejected(self, simple_vocabulary):
        controller = FSAController(vocabulary=simple_vocabulary)
        controller.add_state("q0")
        with pytest.raises(AutomatonError):
            controller.add_transition("q0", "true", "fly", "q0")

    def test_unknown_state_rejected(self, simple_vocabulary):
        controller = FSAController(vocabulary=simple_vocabulary)
        controller.add_state("q0")
        with pytest.raises(AutomatonError):
            controller.add_transition("q0", "true", "go", "q1")

    def test_step_and_enabled(self, safe_controller):
        moves = safe_controller.step("q0", frozenset({"green"}))
        assert moves == [(frozenset({"go"}), "q0")]
        moves = safe_controller.step("q0", frozenset({"green", "ped"}))
        assert moves == [(frozenset({"stop"}), "q0")]

    def test_no_blocking_pairs(self, safe_controller):
        symbols = [frozenset(), frozenset({"green"}), frozenset({"ped"}), frozenset({"green", "ped"})]
        assert safe_controller.blocking_pairs(symbols) == []

    def test_validate_empty_controller(self, simple_vocabulary):
        with pytest.raises(AutomatonError):
            FSAController(vocabulary=simple_vocabulary).validate()

    def test_describe_lists_transitions(self, safe_controller):
        text = safe_controller.describe()
        assert "q0" in text and "go" in text


class TestKripkeStructure:
    def test_deadlocks_and_totalisation(self):
        kripke = KripkeStructure(name="k")
        kripke.add_state("a", ["x"], initial=True)
        kripke.add_state("b", [])
        kripke.add_state("c", ["y"])
        kripke.add_transition("a", "b")
        assert kripke.deadlock_states() == {"b", "c"}
        added = kripke.make_total()
        assert added == 2

    def test_validate_requires_initial(self):
        kripke = KripkeStructure()
        kripke.add_state("a", [])
        with pytest.raises(AutomatonError):
            kripke.validate()

    def test_atoms_union(self):
        kripke = KripkeStructure()
        kripke.add_state("a", ["x"], initial=True)
        kripke.add_state("b", ["y"])
        assert kripke.atoms() == frozenset({"x", "y"})


class TestProduct:
    def test_labels_combine_observation_and_action(self, simple_model, safe_controller):
        product = build_product(simple_model, safe_controller)
        some_state = next(iter(product.initial_states))
        assert isinstance(some_state, ProductState)
        label = product.label(some_state)
        assert label & {"go", "stop"}  # the action part is present

    def test_every_initial_model_state_is_covered(self, simple_model, safe_controller):
        product = build_product(simple_model, safe_controller)
        covered = {state.model_state for state in product.initial_states}
        assert covered == set(simple_model.initial_states)

    def test_reckless_product_contains_ped_go_label(self, simple_model, reckless_controller):
        product = build_product(simple_model, reckless_controller)
        labels = {product.label(s) for s in product.states}
        assert frozenset({"ped", "go"}) in labels

    def test_blocking_controller_raises(self, simple_model, simple_vocabulary):
        blocked = FSAController(name="blocked", vocabulary=simple_vocabulary)
        blocked.add_state("q0", initial=True)
        blocked.add_transition("q0", "green & ped & !green", "go", "q0")  # unsatisfiable guard
        with pytest.raises(AutomatonError):
            build_product(simple_model, blocked)

    def test_restart_on_termination_extends_runs(self, simple_model, simple_vocabulary):
        one_shot = FSAController(name="one_shot", vocabulary=simple_vocabulary)
        one_shot.add_state("q0", initial=True)
        one_shot.add_state("q1")
        one_shot.add_transition("q0", "true", "go", "q1")
        stuttering = build_product(simple_model, one_shot, restart_on_termination=False)
        restarting = build_product(simple_model, one_shot, restart_on_termination=True)
        # With restarts the controller re-enters q0, so more product states are reachable.
        assert restarting.num_states >= stuttering.num_states
        terminal_selfloops = [s for s in stuttering.states if stuttering.successors(s) == frozenset({s})]
        assert terminal_selfloops, "without restarts the terminal states must stutter"
