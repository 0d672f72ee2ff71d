"""Tests for formal/empirical feedback and preference-pair construction."""

import pytest

from repro.driving import all_specifications, all_tasks, core_specifications, response_templates
from repro.feedback import (
    EmpiricalEvaluator,
    FormalVerifier,
    max_pairs,
    rank_to_pairs,
    trace_satisfaction,
)
from repro.logic import parse_ltl


class TestFormalVerifier:
    @pytest.fixture(scope="class")
    def verifier(self):
        return FormalVerifier(all_specifications())

    def test_compliant_beats_flawed(self, verifier, right_turn_task):
        model = right_turn_task.model()
        good = verifier.verify_response(model, response_templates(right_turn_task.name, "compliant")[0], task="good")
        bad = verifier.verify_response(model, response_templates(right_turn_task.name, "flawed")[0], task="bad")
        assert good.num_satisfied > bad.num_satisfied
        assert good.satisfaction_ratio > 0.85
        assert "phi_5" in bad.violated

    def test_unparseable_response_scores_zero(self, verifier, right_turn_task):
        feedback = verifier.verify_response(right_turn_task.model(), "1. Just be careful.", task="vague")
        assert feedback.parse_failed
        assert feedback.num_satisfied == 0
        assert feedback.num_specifications == 15

    def test_verify_controller_reports_names(self, verifier, right_turn_task, right_turn_good_controller):
        feedback = verifier.verify_controller(right_turn_task.model(), right_turn_good_controller, task="good")
        assert set(feedback.satisfied) | set(feedback.violated) == set(all_specifications())
        assert "specifications satisfied" in feedback.describe()


class TestCatalogueFeedback:
    """On every catalogue task the templates give DPO-AF a ranking signal:
    compliant responses outscore flawed ones, and vague ones score zero."""

    @pytest.fixture(scope="class")
    def verifier(self):
        return FormalVerifier(all_specifications())

    @pytest.mark.parametrize("task", all_tasks(), ids=lambda task: task.name)
    def test_compliant_outscore_flawed_and_vague_score_zero(self, verifier, task):
        model = task.model()

        def feedback(category):
            return [
                verifier.verify_response(model, text, task=task.name)
                for text in response_templates(task.name, category)
            ]

        def mean_satisfied(items):
            return sum(item.num_satisfied for item in items) / len(items)

        compliant, flawed, vague = feedback("compliant"), feedback("flawed"), feedback("vague")
        assert not any(item.parse_failed for item in compliant + flawed)
        assert all(item.parse_failed and item.num_satisfied == 0 for item in vague)
        assert min(item.num_satisfied for item in compliant) > 0
        assert mean_satisfied(compliant) > mean_satisfied(flawed)


class TestEmpiricalFeedback:
    def test_trace_satisfaction_counts(self):
        specs = {"resp": parse_ltl("G(ped -> F stop)"), "live": parse_ltl("F go")}
        traces = [[{"ped"}, {"stop"}], [{"ped"}, {"go"}]]
        values = trace_satisfaction(specs, traces)
        assert values["resp"] == pytest.approx(0.5)
        assert values["live"] == pytest.approx(0.5)

    def test_requires_traces(self):
        with pytest.raises(ValueError):
            trace_satisfaction({"a": parse_ltl("a")}, [])

    def test_evaluator_with_stub_grounding(self):
        def grounding(controller, num_traces, seed):  # noqa: ARG001 - fixed traces
            return [[{"ped", "stop"}], [{"ped"}]] * (num_traces // 2 or 1)

        evaluator = EmpiricalEvaluator({"phi": parse_ltl("G(ped -> F stop)")}, grounding, threshold=0.9)
        feedback = evaluator.evaluate_controller(object(), num_traces=4, task="stub")
        assert feedback.num_traces == 4
        assert feedback.num_satisfied == 0          # only half the traces satisfy the spec
        assert feedback.mean_satisfaction == pytest.approx(0.5)

    def test_simulation_grounding_integration(self, right_turn_task, right_turn_good_controller, core_specs):
        from repro.sim import SimulationGrounding

        evaluator = EmpiricalEvaluator(core_specs, SimulationGrounding(right_turn_task.scenario), threshold=0.9)
        feedback = evaluator.evaluate_controller(right_turn_good_controller, num_traces=8, seed=0)
        assert feedback.num_specifications == 5
        assert 0.0 <= feedback.mean_satisfaction <= 1.0
        assert feedback.satisfaction["phi_5"] >= 0.9   # compliant controller respects Φ5 in simulation


class TestRankerOrderIndependence:
    """rank_to_pairs output must be a pure function of the (response, score)
    multiset — the property streaming pair construction relies on."""

    RESPONSES = [
        "1. Stop at the line.",
        "2. Yield to traffic.",
        "3. Merge when clear.",
        "4. Signal before turning.",
        "5. Check the mirror.",
        "1. Stop at the line.",  # duplicate response, duplicate score
    ]
    SCORES = [3, 1, 4, 1, 5, 3]

    def test_permutation_invariance_property(self):
        """Property test: the pair *list* (content and order) is identical
        under random permutations of the input."""
        import random

        reference = rank_to_pairs("p", self.RESPONSES, self.SCORES, task="t")
        assert reference  # non-trivial workload
        rng = random.Random(20260728)
        indices = list(range(len(self.RESPONSES)))
        for _ in range(100):
            rng.shuffle(indices)
            permuted = rank_to_pairs(
                "p",
                [self.RESPONSES[i] for i in indices],
                [self.SCORES[i] for i in indices],
                task="t",
            )
            assert permuted == reference

    def test_reversal_and_identity_agree(self):
        forward = rank_to_pairs("p", self.RESPONSES, self.SCORES)
        backward = rank_to_pairs("p", self.RESPONSES[::-1], self.SCORES[::-1])
        assert forward == backward

    def test_canonical_ranking_orders_by_score_then_fingerprint(self):
        from repro.feedback import canonical_ranking, response_fingerprint

        responses = ["b", "a", "c"]
        scores = [1, 2, 1]
        ranking = canonical_ranking(responses, scores)
        assert ranking[0] == 1  # highest score first
        tied = sorted(["b", "c"], key=response_fingerprint)
        assert [responses[i] for i in ranking[1:]] == tied

    def test_response_fingerprint_is_content_addressed(self):
        from repro.feedback import response_fingerprint

        assert response_fingerprint("x") == response_fingerprint("x")
        assert response_fingerprint("x") != response_fingerprint("y")
        assert len(response_fingerprint("x")) == 64  # sha256 hex

    def test_pairs_enumerate_canonical_order(self):
        """First pair is best-vs-next, pairs walk the ranking — deterministic
        regardless of how the caller ordered the inputs."""
        pairs = rank_to_pairs("p", ["low", "high", "mid"], [1, 9, 5])
        assert (pairs[0].chosen, pairs[0].rejected) == ("high", "mid")
        assert (pairs[1].chosen, pairs[1].rejected) == ("high", "low")
        assert (pairs[2].chosen, pairs[2].rejected) == ("mid", "low")


class TestRanker:
    def test_rank_to_pairs_orientation(self):
        pairs = rank_to_pairs("prompt", ["worse", "better"], [3, 10], task="t")
        assert len(pairs) == 1
        assert pairs[0].chosen == "better"
        assert pairs[0].rejected == "worse"
        assert pairs[0].margin == 7

    def test_ties_are_dropped(self):
        assert rank_to_pairs("p", ["a", "b"], [5, 5]) == []

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            rank_to_pairs("p", ["a"], [1, 2])

    def test_max_pairs_formula(self):
        assert max_pairs(num_tasks=10, responses_per_task=3) == 30
        assert max_pairs(num_tasks=1, responses_per_task=2) == 1
