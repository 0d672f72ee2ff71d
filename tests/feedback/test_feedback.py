"""Tests for formal/empirical feedback and preference-pair construction."""

import random
import sys
import threading

import pytest

from repro.driving import (
    RESPONSE_LIBRARY,
    VAGUE_RESPONSES,
    all_specifications,
    all_tasks,
    core_specifications,
    response_templates,
    task_by_name,
)
from repro.errors import AlignmentError
from repro.feedback import (
    EmpiricalEvaluator,
    FormalVerifier,
    max_pairs,
    rank_to_pairs,
    trace_satisfaction,
)
from repro.glm2fsa.builder import build_controller_from_text
from repro.logic import parse_ltl
from repro.modelcheck import ModelChecker, controller_fingerprint


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


def recombined_responses(seed: int, count: int) -> list:
    """``count`` seeded ``(task, response)`` step-level recombinations of the templates.

    perfbench's ``feedback_serve`` recipe: start from one of the task's
    compliant, flawed or vague templates, swap each step for a random step
    of the task's pool (p = 0.55) or drop it (p = 0.10), insert pool steps
    while a draw falls below 0.75, and renumber.
    """
    rng = random.Random(seed)
    tasks = [task for task in all_tasks() if task.name in RESPONSE_LIBRARY]
    stream = []
    for _ in range(count):
        task = rng.choice(tasks)
        texts = response_templates(task.name, "compliant") + response_templates(task.name, "flawed")
        templates = [[line.split(". ", 1)[1] for line in text.splitlines()] for text in texts + VAGUE_RESPONSES]
        pool = sorted({step for steps in templates for step in steps})
        steps = []
        for step in rng.choice(templates):
            draw = rng.random()
            if draw < 0.55:
                steps.append(rng.choice(pool))
            elif draw >= 0.65:
                steps.append(step)
        while rng.random() < 0.75 or not steps:
            steps.insert(rng.randint(0, len(steps)), rng.choice(pool))
        stream.append((task, "\n".join(f"{i}. {step}" for i, step in enumerate(steps, 1))))
    return stream


class CountingChecker(ModelChecker):
    """A checker with no result cache that counts its ``verdicts`` calls."""

    def __init__(self):
        super().__init__(result_cache_size=0)
        self.calls = 0

    def verdicts(self, *args, **kwargs):
        self.calls += 1
        return super().verdicts(*args, **kwargs)


class TestVerdictReuse:
    """A verifier model-checks each controller structure once per world model
    and reuses the verdict, under its own task, for every later response that
    compiles to it."""

    def test_reused_verdicts_equal_a_fresh_check(self):
        specs = all_specifications()
        names = list(specs)
        verifier = FormalVerifier(specs)
        stream = recombined_responses(seed=5, count=300)
        models = {task.scenario: task.model() for task, _ in stream}
        assert set(models) == {task.scenario for task in all_tasks()}
        tasks_by_structure: dict = {}
        for task, text in stream:
            model = models[task.scenario]
            feedback = verifier.verify_response(model, text, task=task.name)
            try:
                controller = build_controller_from_text(text, task=task.name, name=task.name)
            except AlignmentError:
                assert feedback.parse_failed
                continue
            structure = (task.scenario, controller_fingerprint(controller))
            tasks_by_structure.setdefault(structure, set()).add(task.name)
            report = ModelChecker(result_cache_size=0).verify_controller(
                model, controller, specs.values(), spec_names=names
            )
            expected = (
                report.num_satisfied,
                tuple(name for name, result in zip(names, report.results) if result.holds),
                tuple(name for name, result in zip(names, report.results) if not result.holds),
                controller.num_states,
                task.name,
            )
            actual = (
                feedback.num_satisfied,
                feedback.satisfied,
                feedback.violated,
                feedback.controller_states,
                feedback.task,
            )
            assert actual == expected, text
        # The stream exercises reuse across tasks (and so controller names).
        assert any(len(tasks) > 1 for tasks in tasks_by_structure.values())

    def test_threads_sharing_a_verifier_get_the_serial_feedback(self):
        stream = recombined_responses(seed=9, count=60)
        models = {task.scenario: task.model() for task, _ in stream}
        specs = all_specifications()
        reference = FormalVerifier(specs)
        expected = [reference.verify_response(models[t.scenario], text, task=t.name) for t, text in stream]
        shared = FormalVerifier(specs)
        results: dict = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(
                    target=lambda k=k: results.__setitem__(
                        k, [shared.verify_response(models[t.scenario], text, task=t.name) for t, text in stream]
                    )
                )
                for k in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert [results[k] for k in range(4)] == [expected] * 4
        assert shared._verdicts.stats()["entries"] == reference._verdicts.stats()["entries"]

    def test_one_structure_is_checked_once_under_each_task(self):
        first, second = task_by_name("stop_sign_go_straight"), task_by_name("turn_right_stop_sign")
        assert first.scenario == second.scenario
        text = response_templates(first.name, "compliant")[0]
        variant = text.upper()
        assert controller_fingerprint(build_controller_from_text(text)) == controller_fingerprint(
            build_controller_from_text(variant)
        )
        checker = CountingChecker()
        verifier = FormalVerifier(all_specifications(), checker=checker)
        model = first.model()
        one = verifier.verify_response(model, text, task=first.name)
        two = verifier.verify_response(model, variant, task=second.name)
        assert checker.calls == 1
        assert (one.task, two.task) == (first.name, second.name)
        assert (one.satisfied, one.violated) == (two.satisfied, two.violated)

    def test_one_controller_against_two_models_is_checked_twice(self):
        first, second = task_by_name("stop_sign_go_straight"), task_by_name("yield_crosswalk")
        assert first.scenario != second.scenario
        checker = CountingChecker()
        verifier = FormalVerifier(all_specifications(), checker=checker)
        text = response_templates(first.name, "compliant")[0]
        verifier.verify_response(first.model(), text, task=first.name)
        verifier.verify_response(second.model(), text, task=first.name)
        assert checker.calls == 2


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
