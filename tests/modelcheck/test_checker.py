"""Tests for the LTL model checker (the NuSMV substitute).

Every verdict here is worked out by hand, and both checkers must reach it:
the fast :class:`ModelChecker` and the frozen :class:`NaiveModelChecker`,
which implements ``check``, ``check_all`` and ``verify_controller`` itself.
"""

import pytest

from repro.automata import KripkeStructure, build_product
from repro.errors import VerificationError
from repro.logic import parse_ltl
from repro.modelcheck import ModelChecker, NaiveModelChecker

CHECKERS = pytest.mark.parametrize("checker_class", [ModelChecker, NaiveModelChecker], ids=["fast", "naive"])


@pytest.fixture(scope="module", params=[ModelChecker, NaiveModelChecker], ids=["fast", "naive"])
def checker(request) -> ModelChecker:
    return request.param()


def lasso(labels, loop_from=0):
    """A Kripke structure that is a simple lasso over the given labels."""
    kripke = KripkeStructure(name="lasso")
    for i, label in enumerate(labels):
        kripke.add_state(i, frozenset(label), initial=(i == 0))
    for i in range(len(labels) - 1):
        kripke.add_transition(i, i + 1)
    kripke.add_transition(len(labels) - 1, loop_from)
    return kripke


class TestBasicVerdicts:
    def test_always_holds(self, checker):
        assert checker.check(lasso([{"a"}, {"a"}]), "G a").holds

    def test_always_violated(self, checker):
        result = checker.check(lasso([{"a"}, {}]), "G a")
        assert not result.holds
        assert result.counterexample is not None

    def test_eventually_holds(self, checker):
        assert checker.check(lasso([{}, {"b"}]), "F b").holds

    def test_eventually_violated_on_empty_loop(self, checker):
        assert not checker.check(lasso([{}, {}]), "F b").holds

    def test_response_property(self, checker):
        kripke = lasso([{"ped"}, {"stop"}, {}])
        assert checker.check(kripke, "G(ped -> F stop)").holds

    def test_response_property_violated(self, checker):
        kripke = lasso([{"ped"}, {"go"}, {"go"}], loop_from=1)
        assert not checker.check(kripke, "G(ped -> F stop)").holds

    def test_next_operator(self, checker):
        assert checker.check(lasso([{"a"}, {"b"}], loop_from=1), "X b").holds
        assert not checker.check(lasso([{"a"}, {"c"}], loop_from=1), "X b").holds

    def test_until(self, checker):
        assert checker.check(lasso([{"a"}, {"a"}, {"b"}], loop_from=2), "a U b").holds
        assert not checker.check(lasso([{"a"}, {}, {"b"}], loop_from=2), "a U b").holds

    def test_infinitely_often(self, checker):
        assert checker.check(lasso([{"a"}, {}]), "G F a").holds
        assert not checker.check(lasso([{"a"}, {}], loop_from=1), "G F a").holds

    def test_string_and_formula_inputs_agree(self, checker):
        kripke = lasso([{"a"}, {"a"}])
        assert checker.check(kripke, "G a").holds == checker.check(kripke, parse_ltl("G a")).holds

    def test_all_initial_states_are_checked(self, checker):
        kripke = KripkeStructure(name="two_inits")
        kripke.add_state("good", ["a"], initial=True)
        kripke.add_state("bad", [], initial=True)
        kripke.add_transition("good", "good")
        kripke.add_transition("bad", "bad")
        assert not checker.check(kripke, "G a").holds


class TestCounterexamples:
    def test_counterexample_is_a_lasso(self, checker):
        result = checker.check(lasso([{"a"}, {}], loop_from=1), "G a")
        counterexample = result.counterexample
        assert len(counterexample.cycle) >= 1
        assert counterexample.labels  # non-empty violating trace

    def test_counterexample_violates_spec_on_unrolling(self, checker):
        """The finite unrolling of the counter-example indeed violates a safety spec."""
        from repro.logic import evaluate_trace

        spec = parse_ltl("G a")
        result = checker.check(lasso([{"a"}, {"a"}, {}], loop_from=0), spec)
        assert not result.holds
        assert not evaluate_trace(spec, result.counterexample.finite_unrolling())

    def test_describe_mentions_loop(self, checker):
        result = checker.check(lasso([{"a"}, {}], loop_from=1), "G a")
        assert "Loop" in result.counterexample.describe()


class TestReportsAndLimits:
    def test_check_all_counts(self, checker):
        kripke = lasso([{"a"}, {"a", "b"}])
        report = checker.check_all(kripke, ["G a", "F b", "G b"])
        assert report.num_specifications == 3
        assert report.num_satisfied == 2
        assert report.satisfaction_ratio == pytest.approx(2 / 3)
        assert len(report.violated) == 1

    @CHECKERS
    def test_product_state_limit(self, checker_class):
        tiny = checker_class(max_product_states=2)
        kripke = lasso([{"a"}, {"b"}, {"c"}, {"d"}])
        with pytest.raises(VerificationError):
            tiny.check(kripke, "G F a")

    @CHECKERS
    def test_verify_controller(self, checker_class, simple_model, safe_controller, reckless_controller):
        specs = [parse_ltl("G(!green -> !go)"), parse_ltl("G(ped -> F stop)")]
        checker = checker_class()
        safe_report = checker.verify_controller(simple_model, safe_controller, specs)
        reckless_report = checker.verify_controller(simple_model, reckless_controller, specs)
        assert safe_report.num_satisfied == 2
        assert reckless_report.num_satisfied == 0

    def test_result_bool_and_describe(self, checker):
        result = checker.check(lasso([{"a"}]), "G a")
        assert bool(result)
        assert "satisfied" in result.describe()
