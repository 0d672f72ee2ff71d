"""Span-protocol tests for the model checker's cached construction path.

The fast path must attribute work honestly: an actual LTL→Büchi translation
emits ``mc.construct``; answering from the construction memo emits
``mc.construct_cached`` (never a second ``mc.construct``, which would
misattribute translation time in the trace report); a verification-result
cache hit emits ``mc.check_cached``, and so does a verifier's reuse of a
controller structure's verdict, once per rule.
"""

from repro.automata import KripkeStructure
from repro.driving import all_specifications, response_templates, task_by_name
from repro.feedback import FormalVerifier
from repro.glm2fsa.builder import build_controller_from_text
from repro.logic import parse_ltl
from repro.modelcheck import ModelChecker, NaiveModelChecker
from repro.modelcheck.fastpath import BuchiMemo, automata_memo
from repro.obs import tracer as obs
from repro.obs.report import per_spec_profile
from repro.obs.tracer import Tracer


def simple_kripke():
    kripke = KripkeStructure(name="k")
    kripke.add_state(0, frozenset({"a"}), initial=True)
    kripke.add_transition(0, 0)
    return kripke


class TestConstructSpans:
    def test_memo_hit_emits_construct_cached_not_construct(self):
        tracer = obs.install_tracer(Tracer())
        checker = ModelChecker(memo=BuchiMemo())
        kripke = simple_kripke()
        formula = parse_ltl("G a")
        checker.check(kripke, formula, name="phi")
        checker.check(kripke, formula, name="phi")
        names = [s.name for s in tracer.spans()]
        assert names.count("mc.construct") == 1
        assert names.count("mc.construct_cached") == 1
        cached_span = next(s for s in tracer.spans() if s.name == "mc.construct_cached")
        assert cached_span.attributes["spec"] == "phi"

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

    def test_result_cache_hit_emits_check_cached(self):
        task = task_by_name("turn_left_unprotected")
        model = task.model()
        controller = build_controller_from_text(
            response_templates(task.name, "compliant")[0], task=task.name
        )
        tracer = obs.install_tracer(Tracer())
        checker = ModelChecker(memo=BuchiMemo())
        specs = [parse_ltl("G (ped -> F stop)")]
        checker.verify_controller(model, controller, specs, spec_names=["phi"])
        checker.verify_controller(model, controller, specs, spec_names=["phi"])
        names = [s.name for s in tracer.spans()]
        assert names.count("mc.check") == 1
        assert names.count("mc.check_cached") == 1
        # The cached pass never rebuilds the product.
        assert names.count("mc.build_model") == 1

    def test_shared_pass_emits_one_product_span_and_one_check_per_rule(self):
        task = task_by_name("turn_left_unprotected")
        model = task.model()
        specs = all_specifications()
        controller = build_controller_from_text(
            response_templates(task.name, "flawed")[0], task=task.name
        )
        checker = ModelChecker(memo=BuchiMemo(), result_cache_size=0)
        tracer = obs.install_tracer(Tracer())
        holds = checker.verdicts(model, controller, specs.values(), spec_names=list(specs))
        report = checker.verify_controller(model, controller, specs.values(), spec_names=list(specs))
        assert not all(holds)
        assert [result.holds for result in report.results] == list(holds)
        spans = tracer.spans()
        products = [s for s in spans if s.name == "mc.product" and "rules" in s.attributes]
        assert [s.attributes["rules"] for s in products] == [len(specs)] * 2
        checks = [s.attributes["spec"] for s in spans if s.name == "mc.check"]
        # Each call checks every rule once; a violated rule's counterexample
        # search in verify_controller emits its check, not the shared pass.
        assert sorted(checks) == sorted(list(specs) * 2)
        profile = per_spec_profile(spans)
        assert all(profile[name]["checks"] == 2 for name in specs)

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

    def test_verdict_reuse_emits_check_cached_per_spec(self):
        task = task_by_name("turn_left_unprotected")
        model = task.model()
        text = response_templates(task.name, "compliant")[0]
        specs = all_specifications()
        verifier = FormalVerifier(specs)
        tracer = obs.install_tracer(Tracer())
        verifier.verify_response(model, text, task=task.name)
        verifier.verify_response(model, text.upper(), task="same_structure")
        names = [s.name for s in tracer.spans()]
        assert names.count("mc.build_model") == 1
        cached = [s.attributes["spec"] for s in tracer.spans() if s.name == "mc.check_cached"]
        assert cached == list(specs)
        profile = per_spec_profile(tracer.spans())
        assert all(profile[name]["cache_hits"] >= 1 for name in specs)

    def test_profile_counts_cache_hits_and_cached_checks(self):
        tracer = obs.install_tracer(Tracer())
        checker = ModelChecker(memo=BuchiMemo())
        kripke = simple_kripke()
        formula = parse_ltl("G a")
        checker.check(kripke, formula, name="phi")
        checker.check(kripke, formula, name="phi")
        profile = per_spec_profile(tracer.spans())
        entry = profile["phi"]
        assert entry["checks"] == 2
        assert entry["cache_hits"] == 1
        assert entry["construct_cached"] >= 0.0
