"""Tests for the verification fast path (repro.modelcheck.fastpath).

The differential and fuzz suites prove verdict agreement end to end; these
tests cover the fast path's building blocks directly — pruning, the
construction memo, compiled products, result caching and fingerprints.
"""

import gc
import sys
import threading
import weakref

import pytest

from repro.automata import KripkeStructure, build_product
from repro.automata.buchi import BuchiAutomaton, LabelConstraint
from repro.driving import all_specifications, all_tasks, response_templates, task_by_name
from repro.errors import VerificationError
from repro.feedback import FormalVerifier
from repro.glm2fsa.builder import build_controller_from_text
from repro.logic import parse_ltl
from repro.logic.ast import Not
from repro.logic.ltl2buchi import formula_key, ltl_to_buchi
from repro.modelcheck import ModelChecker, NaiveModelChecker
from repro.modelcheck.checker import IDENTITY_MEMO_SIZE, RULE_BOOK_MEMO_SIZE
from repro.modelcheck.fastpath import (
    BuchiMemo,
    CachedAutomaton,
    ResultCache,
    RuleBook,
    automaton_accepts_lasso,
    check_rule_book,
    compile_product,
    controller_fingerprint,
    find_accepting_lasso,
    model_fingerprint,
    prune_automaton,
)


def lasso(labels, loop_from=0):
    kripke = KripkeStructure(name="lasso")
    for i, label in enumerate(labels):
        kripke.add_state(i, frozenset(label), initial=(i == 0))
    for i in range(len(labels) - 1):
        kripke.add_transition(i, i + 1)
    kripke.add_transition(len(labels) - 1, loop_from)
    return kripke


def negated_automaton(text):
    return ltl_to_buchi(Not(parse_ltl(text)), name="neg")


def memoized_automaton(formula):
    """The pruned automaton of ``¬formula``, as the checker memoizes it."""
    return CachedAutomaton(prune_automaton(ltl_to_buchi(Not(formula))))


class TestPruning:
    def test_drops_states_that_cannot_reach_an_accepting_cycle(self):
        nba = BuchiAutomaton(name="raw")
        nba.add_state("a", initial=True)
        nba.add_state("b", accepting=True)
        nba.add_state("dead")  # reachable, but no path back to any cycle
        true_c = LabelConstraint(frozenset(), frozenset())
        nba.add_transition("a", true_c, "b")
        nba.add_transition("b", true_c, "b")
        nba.add_transition("a", true_c, "dead")
        pruned = prune_automaton(nba)
        assert pruned.num_states == 2

    def test_unreachable_accepting_cycle_yields_empty_automaton(self):
        nba = BuchiAutomaton(name="raw")
        nba.add_state("a", initial=True)
        nba.add_state("island", accepting=True)
        true_c = LabelConstraint(frozenset(), frozenset())
        nba.add_transition("a", true_c, "a")
        nba.add_transition("island", true_c, "island")
        pruned = prune_automaton(nba)
        assert pruned.num_states == 0
        assert CachedAutomaton(pruned).is_empty

    def test_merges_bisimilar_states(self):
        nba = BuchiAutomaton(name="raw")
        nba.add_state("i", initial=True)
        # Two non-accepting states with identical outgoing behaviour.
        nba.add_state("x1")
        nba.add_state("x2")
        nba.add_state("acc", accepting=True)
        a = LabelConstraint(frozenset({"a"}), frozenset())
        true_c = LabelConstraint(frozenset(), frozenset())
        nba.add_transition("i", a, "x1")
        nba.add_transition("i", a, "x2")
        nba.add_transition("x1", true_c, "acc")
        nba.add_transition("x2", true_c, "acc")
        nba.add_transition("acc", true_c, "acc")
        pruned = prune_automaton(nba)
        assert pruned.num_states == 3  # x1/x2 merged

    @pytest.mark.parametrize("text", ["G a", "F b", "G (a -> F b)", "a U b", "G F a"])
    def test_never_grows_the_automaton(self, text):
        raw = negated_automaton(text)
        assert prune_automaton(raw).num_states <= raw.num_states

    @pytest.mark.parametrize(
        "text,labels,loop_from",
        [
            ("G a", [{"a"}, set()], 0),
            ("F b", [set(), set()], 0),
            ("G (a -> F b)", [{"a"}, {"c"}], 1),
            ("a U b", [{"a"}, set(), {"b"}], 2),
        ],
    )
    def test_preserves_violating_lassos(self, text, labels, loop_from):
        """Any lasso the raw automaton accepts, the pruned one accepts too."""
        kripke = lasso(labels, loop_from=loop_from)
        naive = NaiveModelChecker().check(kripke, text)
        assert not naive.holds
        ce = naive.counterexample
        prefix = [step.state for step in ce.prefix]
        cycle = [step.state for step in ce.cycle]
        raw = negated_automaton(text)

        def word_label(state):
            return kripke.label(state)

        prefix_labels = [word_label(s) for s in prefix]
        cycle_labels = [word_label(s) for s in cycle]
        assert automaton_accepts_lasso(raw, prefix_labels, cycle_labels)
        assert automaton_accepts_lasso(prune_automaton(raw), prefix_labels, cycle_labels)


class TestBuchiMemo:
    def test_first_translation_is_a_miss_then_memory_hits(self):
        memo = BuchiMemo()
        formula = Not(parse_ltl("G (a -> F b)"))
        key = formula_key(formula)
        assert memo.lookup(key) is None
        cached = memo.translate_and_store(key, formula)
        assert memo.lookup(key) is cached
        stats = memo.stats()
        assert stats["misses"] == 1
        assert stats["hits_memory"] == 1
        assert stats["hits_disk"] == 0

    def test_clear_drops_entries_and_counters(self):
        memo = BuchiMemo()
        formula = Not(parse_ltl("F b"))
        key = formula_key(formula)
        memo.translate_and_store(key, formula)
        memo.lookup(key)
        memo.clear()
        assert memo.lookup(key) is None
        assert memo.stats() == {"hits_memory": 0, "hits_disk": 0, "misses": 0, "entries": 0}

    def test_concurrent_translators_converge_on_one_automaton(self):
        """Racing translations of one key all return the first stored object."""
        memo = BuchiMemo()
        formula = Not(parse_ltl("G (a -> F b)"))
        key = formula_key(formula)
        workers = 8
        barrier = threading.Barrier(workers)
        results = []

        def translate():
            barrier.wait(timeout=30)
            results.append(memo.translate_and_store(key, formula))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=translate) for _ in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == workers
        assert all(result is results[0] for result in results)
        assert memo.lookup(key) is results[0]
        assert memo.stats()["misses"] == workers and memo.stats()["entries"] == 1


class TestCompiledProduct:
    @pytest.fixture(scope="class")
    def scenario(self):
        task = task_by_name("turn_left_unprotected")
        model = task.model()
        controller = build_controller_from_text(
            "1. If pedestrian, stop.\n2. Otherwise, proceed through the intersection.",
            task=task.name,
            name="compiled_product_probe",
        )
        return model, controller

    @pytest.mark.parametrize("restart", [True, False])
    def test_matches_build_product_states_and_edges(self, scenario, restart):
        model, controller = scenario
        reference = build_product(model, controller, restart_on_termination=restart)
        compiled = compile_product(model, controller, restart_on_termination=restart)
        assert compiled.num_states == reference.num_states
        ref_edges = {
            (s, d) for s in reference.states for d in reference.successors(s)
        }
        got_edges = {
            (compiled.origin[i], compiled.origin[j])
            for i in range(compiled.num_states)
            for j in compiled.succ[i]
        }
        assert got_edges == ref_edges
        for i in range(compiled.num_states):
            assert compiled.label_of(compiled.origin[i]) == reference.label(compiled.origin[i])

    def test_find_accepting_lasso_verdicts_match_reference(self, scenario):
        model, controller = scenario
        reference = build_product(model, controller, restart_on_termination=True)
        compiled = compile_product(model, controller, restart_on_termination=True)
        naive = NaiveModelChecker()
        for text in ["G (ped -> F stop)", "G F go", "F crash"]:
            formula = parse_ltl(text)
            cached = CachedAutomaton(prune_automaton(ltl_to_buchi(Not(formula))))
            lasso_found, stats = find_accepting_lasso(compiled, cached)
            assert (lasso_found is None) == naive.check(reference, formula).holds
            assert stats["kripke_states"] == compiled.num_states

    def test_product_size_limit_raises(self, scenario):
        model, controller = scenario
        compiled = compile_product(model, controller)
        cached = CachedAutomaton(prune_automaton(ltl_to_buchi(Not(parse_ltl("G F stop")))))
        with pytest.raises(Exception, match="product exceeded"):
            find_accepting_lasso(compiled, cached, max_product_states=1)


class TestWeakAutomata:
    def test_every_rule_of_the_book_is_weak(self):
        assert all(memoized_automaton(formula).weak for formula in all_specifications().values())

    def test_a_four_state_safety_automaton_is_weak(self):
        cached = memoized_automaton(parse_ltl("G (a -> X X b)"))
        assert cached.num_states == 4
        assert cached.weak

    def test_an_infinitely_often_automaton_is_not_weak(self):
        # ¬(F G a) is G F !a: one component holds an accepting and a
        # rejecting state.
        assert not memoized_automaton(parse_ltl("F G a")).weak


class TestRuleBook:
    """The shared pass against one :func:`find_accepting_lasso` per rule."""

    @pytest.fixture(scope="class")
    def book(self):
        return RuleBook([memoized_automaton(formula) for formula in all_specifications().values()])

    @pytest.fixture(scope="class")
    def structures(self):
        structures = []
        for task in all_tasks()[:4]:
            for category in ("compliant", "flawed"):
                for text in response_templates(task.name, category):
                    controller = build_controller_from_text(text, task=task.name)
                    structures.append(
                        compile_product(task.model(), controller, restart_on_termination=True)
                    )
        return structures

    def test_verdicts_and_product_sizes_match_one_search_per_rule(self, book, structures):
        violations = 0
        for structure in structures:
            holds, reach = check_rule_book(structure, book)
            searches = [find_accepting_lasso(structure, automaton) for automaton in book.automata]
            assert list(holds) == [lasso is None for lasso, _ in searches]
            assert book.product_states(reach) == [stats["product_states"] for _, stats in searches]
            violations += holds.count(False)
        assert violations > 0

    def test_a_product_past_the_bound_raises_and_one_at_it_does_not(self, book, structures):
        # A structure no rule's product fills, so a bound between its largest
        # product and states × depth makes the pass count.
        structure, largest = next(
            (structure, largest)
            for structure in structures
            for largest in [max(book.product_states(check_rule_book(structure, book)[1]))]
            if largest < structure.num_states * book.depth
        )
        check_rule_book(structure, book, max_product_states=largest)
        with pytest.raises(VerificationError, match="product exceeded"):
            check_rule_book(structure, book, max_product_states=largest - 1)


class TestResultCache:
    def test_lru_eviction_and_stats(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a"
        cache.put("c", 3)  # evicts "b"
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        stats = cache.stats()
        assert stats["hits"] == 3
        assert stats["misses"] == 1
        cache.clear()
        assert cache.get("a") is None


class TestFingerprints:
    def test_controller_fingerprint_ignores_the_name(self):
        task = task_by_name("turn_left_unprotected")
        text = "1. If pedestrian, stop.\n2. Otherwise, proceed."
        one = build_controller_from_text(text, task=task.name, name="one")
        two = build_controller_from_text(text, task=task.name, name="two")
        assert controller_fingerprint(one) == controller_fingerprint(two)

    def test_controller_fingerprint_separates_structures(self):
        task = task_by_name("turn_left_unprotected")
        one = build_controller_from_text(
            "1. If pedestrian, stop.\n2. Otherwise, proceed.", task=task.name
        )
        two = build_controller_from_text(
            "1. Proceed through the intersection.", task=task.name
        )
        assert controller_fingerprint(one) != controller_fingerprint(two)

    def test_model_fingerprint_is_stable_across_rebuilds(self):
        task = task_by_name("turn_left_unprotected")
        assert model_fingerprint(task.model()) == model_fingerprint(task.model())


class TestResultCacheIntegration:
    def test_repeat_verification_hits_the_result_cache(self):
        task = task_by_name("turn_left_unprotected")
        model = task.model()
        controller = build_controller_from_text(
            "1. If pedestrian, stop.\n2. Otherwise, proceed.", task=task.name
        )
        checker = ModelChecker(memo=BuchiMemo())
        specs = [parse_ltl("G (ped -> F stop)"), parse_ltl("G F go")]
        first = checker.verify_controller(model, controller, specs)
        second = checker.verify_controller(model, controller, specs)
        assert [r.holds for r in first.results] == [r.holds for r in second.results]
        assert checker._results.stats()["hits"] == len(specs)

    def test_same_structure_different_name_shares_cache_entries(self):
        task = task_by_name("turn_left_unprotected")
        model = task.model()
        text = "1. If pedestrian, stop.\n2. Otherwise, proceed."
        one = build_controller_from_text(text, task=task.name, name="one")
        two = build_controller_from_text(text, task=task.name, name="two")
        checker = ModelChecker(memo=BuchiMemo())
        specs = [parse_ltl("G (ped -> F stop)")]
        checker.verify_controller(model, one, specs)
        checker.verify_controller(model, two, specs)
        assert checker._results.stats()["hits"] == 1


class TestBoundedMemos:
    """A long-lived checker keeps at most a bound of the objects it was given."""

    def test_fresh_models_and_formulas_are_evicted_not_kept_alive(self):
        task = task_by_name("turn_left_unprotected")
        text = response_templates(task.name, "compliant")[0]
        controller = build_controller_from_text(text, task=task.name)
        verifier = FormalVerifier(all_specifications())
        checker = verifier.checker
        first_model, first_specs = task.model(), all_specifications()
        watched = [weakref.ref(first_model), *map(weakref.ref, first_specs.values())]
        verifier.verify_response(first_model, text, task=task.name)
        checker.verdicts(first_model, controller, first_specs.values())
        del first_model, first_specs
        for _ in range(IDENTITY_MEMO_SIZE):
            verifier.verify_response(task.model(), text, task=task.name)
            checker.verdicts(task.model(), controller, all_specifications().values())
        gc.collect()
        assert all(ref() is None for ref in watched)
        assert len(checker._model_fingerprints) <= IDENTITY_MEMO_SIZE
        assert len(checker._formula_keys) <= IDENTITY_MEMO_SIZE

    def test_rule_books_are_bounded(self):
        checker = ModelChecker(memo=BuchiMemo())
        kripke = lasso([{"p0"}, {"p1"}])
        for k in range(RULE_BOOK_MEMO_SIZE + 4):
            checker.check(kripke, f"G !p{k + 2}")
        assert len(checker._rule_books) == RULE_BOOK_MEMO_SIZE


class TestEmptyReportRatio:
    def test_empty_report_is_vacuously_satisfied(self):
        from repro.modelcheck import VerificationReport

        report = VerificationReport(results=())
        assert report.satisfaction_ratio == 1.0
        assert report.num_satisfied == 0

    def test_empty_formal_feedback_is_vacuously_satisfied(self):
        from repro.feedback.formal import FormalFeedback

        feedback = FormalFeedback(task="t", num_satisfied=0, num_specifications=0)
        assert feedback.satisfaction_ratio == 1.0

    def test_parse_failed_feedback_still_scores_zero(self):
        from repro.feedback.formal import FormalFeedback

        feedback = FormalFeedback(
            task="t", num_satisfied=0, num_specifications=15, parse_failed=True
        )
        assert feedback.satisfaction_ratio == 0.0
