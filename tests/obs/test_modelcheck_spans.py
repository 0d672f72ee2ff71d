"""Span-protocol tests for the model checker: every span times real work.

An actual LTL→Büchi translation records ``mc.construct``; building a
product records ``mc.build_model``; the shared pass over every weak rule
records one ``mc.product`` with ``rules=``; a per-rule accepting-lasso
search records its own ``mc.product`` and ``mc.check`` with ``spec=``.
Answering from the construction memo or the verdict cache does no
measurable work and records nothing.  A checker compiles a batch of
specifications once, so the memo tests use a second checker to reach it.
"""

from repro.automata import KripkeStructure
from repro.driving import all_specifications, response_templates, task_by_name
from repro.feedback import FormalVerifier
from repro.glm2fsa.builder import build_controller_from_text
from repro.logic import parse_ltl
from repro.modelcheck import ModelChecker, NaiveModelChecker
from repro.modelcheck.fastpath import BuchiMemo, automata_memo
from repro.obs import tracer as obs
from repro.obs.tracer import Tracer


def simple_kripke():
    kripke = KripkeStructure(name="k")
    kripke.add_state(0, frozenset({"a"}), initial=True)
    kripke.add_transition(0, 0)
    return kripke


def flawed_case() -> tuple:
    task = task_by_name("turn_left_unprotected")
    controller = build_controller_from_text(response_templates(task.name, "flawed")[0], task=task.name)
    return task.model(), controller, all_specifications()


class TestConstructSpans:
    def test_a_memo_hit_records_no_span(self):
        """Two checkers sharing a memo record one ``mc.construct`` in all:
        the second finds the automaton in the memo, and that records nothing."""
        tracer = obs.install_tracer(Tracer())
        memo = BuchiMemo()
        kripke = simple_kripke()
        formula = parse_ltl("G a")
        ModelChecker(memo=memo).check(kripke, formula, name="phi")
        ModelChecker(memo=memo).check(kripke, formula, name="phi")
        assert memo.stats()["hits_memory"] == 1
        spans = tracer.spans()
        assert sorted(s.name for s in spans) == ["mc.construct", "mc.product", "mc.product"]
        (construct,) = [s for s in spans if s.name == "mc.construct"]
        assert construct.attributes == {"spec": "phi"}

    def test_naive_checker_translates_every_time_and_never_uses_the_memo(self):
        """The reference path runs none of the fast path: every check is a
        fresh translation, and the process-wide memo is left alone, also when
        a verifier scores through it (perfbench's naive-checker gate)."""
        before = automata_memo().stats()
        tracer = obs.install_tracer(Tracer())
        checker = NaiveModelChecker()
        formula = parse_ltl("G a")
        checker.check(simple_kripke(), formula, name="phi")
        checker.check_all(simple_kripke(), [formula], spec_names=["phi"])
        names = [s.name for s in tracer.spans()]
        assert names.count("mc.construct") == 2
        assert "mc.construct_cached" not in names and "mc.check_cached" not in names
        task = task_by_name("turn_left_unprotected")
        specs = all_specifications()
        verifier = FormalVerifier(specs, checker=NaiveModelChecker())
        for category in ("compliant", "flawed"):
            verifier.verify_response(task.model(), response_templates(task.name, category)[0], task=task.name)
        names = [s.name for s in tracer.spans()]
        assert names.count("mc.construct") == 2 + 2 * len(specs)
        assert "mc.construct_cached" not in names
        assert automata_memo().stats() == before

    def test_a_verifier_on_the_naive_checker_reuses_nothing(self):
        """The oracle keeps no verdict cache: scoring one response twice
        translates every rule twice and answers nothing from a cache."""
        task = task_by_name("turn_left_unprotected")
        text = response_templates(task.name, "compliant")[0]
        specs = all_specifications()
        verifier = FormalVerifier(specs, checker=NaiveModelChecker())
        tracer = obs.install_tracer(Tracer())
        first = verifier.verify_response(task.model(), text, task=task.name)
        second = verifier.verify_response(task.model(), text, task=task.name)
        assert first == second
        names = [s.name for s in tracer.spans()]
        assert names.count("mc.construct") == 2 * len(specs)
        assert "mc.check_cached" not in names

    def test_a_verdict_cache_hit_records_no_span(self):
        model, controller, specs = flawed_case()
        checker = ModelChecker(memo=BuchiMemo())
        tracer = obs.install_tracer(Tracer())
        first = checker.verdicts(model, controller, specs.values(), spec_names=list(specs))
        recorded = len(tracer.spans())
        again = checker.verdicts(model, controller, specs.values(), spec_names=list(specs))
        assert again == first
        assert len(tracer.spans()) == recorded

    def test_the_checker_records_no_counter_samples(self):
        """Memo hits and misses stay in ``BuchiMemo.stats``: translations,
        memo hits, shared passes, verdict-cache hits and counterexample
        searches record spans and never a counter sample."""
        model, controller, specs = flawed_case()
        memo = BuchiMemo()
        tracer = obs.install_tracer(Tracer())
        for _ in range(2):
            checker = ModelChecker(memo=memo)
            for _ in range(2):
                checker.verdicts(model, controller, specs.values(), spec_names=list(specs))
            checker.verify_controller(model, controller, specs.values(), spec_names=list(specs))
        stats = memo.stats()
        assert stats["hits_memory"] > 0 and stats["misses"] > 0
        assert tracer.spans()
        assert tracer.counter_samples() == []

    def test_a_shared_pass_records_one_build_and_one_product(self):
        """``verdicts`` decides all 15 rules in one pass, violated ones
        included: one ``mc.build_model``, one ``mc.product`` with
        ``rules=15`` and no ``mc.check``."""
        model, controller, specs = flawed_case()
        checker = ModelChecker(memo=BuchiMemo(), result_cache_size=0)
        tracer = obs.install_tracer(Tracer())
        holds = checker.verdicts(model, controller, specs.values(), spec_names=list(specs))
        assert not all(holds)
        work = [(s.name, s.attributes) for s in tracer.spans() if s.name != "mc.construct"]
        assert work == [
            ("mc.build_model", {"controller": controller.name}),
            ("mc.product", {"rules": len(specs)}),
        ]

    def test_verify_controller_searches_each_violated_rule(self):
        """Beyond the shared pass, each violated rule's counterexample search
        records one ``mc.product`` and one ``mc.check`` with its ``spec``."""
        model, controller, specs = flawed_case()
        checker = ModelChecker(memo=BuchiMemo(), result_cache_size=0)
        holds = checker.verdicts(model, controller, specs.values(), spec_names=list(specs))
        tracer = obs.install_tracer(Tracer())
        report = checker.verify_controller(model, controller, specs.values(), spec_names=list(specs))
        assert [result.holds for result in report.results] == list(holds)
        violated = sorted(name for name, rule_holds in zip(specs, holds) if not rule_holds)
        assert violated
        spans = tracer.spans()
        assert [s.name for s in spans].count("mc.build_model") == 1
        assert [s.attributes for s in spans if s.name == "mc.product" and "rules" in s.attributes] == [
            {"rules": len(specs)}
        ]
        for name in ("mc.product", "mc.check"):
            searched = [s.attributes["spec"] for s in spans if s.name == name and "spec" in s.attributes]
            assert sorted(searched) == violated, name

    def test_an_empty_rule_book_builds_no_product(self):
        task = task_by_name("turn_left_unprotected")
        controller = build_controller_from_text(
            response_templates(task.name, "compliant")[0], task=task.name
        )
        tracer = obs.install_tracer(Tracer())
        checker = ModelChecker(memo=BuchiMemo())
        assert checker.verdicts(task.model(), controller, []) == ()
        assert checker.verify_controller(task.model(), controller, []).results == ()
        assert tracer.spans() == []

    def test_verdict_reuse_through_a_verifier_records_no_span(self):
        """A second response with an already-checked structure is answered
        from the verdict cache: no product is rebuilt and nothing recorded."""
        task = task_by_name("turn_left_unprotected")
        model = task.model()
        text = response_templates(task.name, "compliant")[0]
        verifier = FormalVerifier(all_specifications())
        tracer = obs.install_tracer(Tracer())
        verifier.verify_response(model, text, task=task.name)
        first = tracer.spans()
        assert [s.name for s in first].count("mc.build_model") == 1
        verifier.verify_response(model, text.upper(), task="same_structure")
        assert tracer.spans() == first
