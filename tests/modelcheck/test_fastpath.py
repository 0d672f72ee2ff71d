"""Tests for the verification fast path (repro.modelcheck.fastpath).

The differential and fuzz suites prove verdict agreement end to end; these
tests cover the fast path's building blocks directly — pruning, serialization,
the construction memo and its persisted shard, compiled products, result
caching and fingerprints.
"""

import pytest

from repro.automata import KripkeStructure, build_product
from repro.automata.buchi import BuchiAutomaton, LabelConstraint
from repro.driving import task_by_name
from repro.glm2fsa.builder import build_controller_from_text
from repro.logic import parse_ltl
from repro.logic.ast import Not
from repro.logic.ltl2buchi import formula_key, ltl_to_buchi
from repro.modelcheck import ModelChecker, NaiveModelChecker
from repro.modelcheck.fastpath import (
    BuchiMemo,
    CachedAutomaton,
    ResultCache,
    automaton_accepts_lasso,
    compile_product,
    controller_fingerprint,
    deserialize_automaton,
    find_accepting_lasso,
    model_fingerprint,
    prune_automaton,
    serialize_automaton,
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


class TestSerialization:
    def test_round_trip_preserves_the_language_machinery(self):
        raw = prune_automaton(negated_automaton("G (a -> F b)"))
        restored = deserialize_automaton(serialize_automaton(raw))
        assert restored is not None
        assert restored.num_states == raw.num_states
        assert len(restored.transitions) == len(raw.transitions)
        assert {s for s in restored.accepting_states} == set(raw.accepting_states)

    def test_schema_mismatch_is_rejected(self):
        payload = serialize_automaton(prune_automaton(negated_automaton("G a")))
        payload["schema"] = 999
        assert deserialize_automaton(payload) is None

    @pytest.mark.parametrize("payload", [None, 7, {}, {"schema": 1}, {"schema": 1, "states": "x"}])
    def test_malformed_payloads_are_rejected_not_raised(self, payload):
        assert deserialize_automaton(payload) is None


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

    def test_persisted_shard_round_trip(self, tmp_path):
        formula = Not(parse_ltl("G (ped -> F stop)"))
        key = formula_key(formula)
        writer = BuchiMemo()
        assert writer.configure_directory(tmp_path) == 0
        first = writer.translate_and_store(key, formula)

        reader = BuchiMemo()
        assert reader.configure_directory(tmp_path) == 1
        assert reader.has_persisted(key)
        loaded = reader.load_persisted(key)
        assert loaded is not None
        assert loaded.num_states == first.num_states
        assert reader.stats()["hits_disk"] == 1
        # Once deserialized it lives in memory: no second disk load.
        assert not reader.has_persisted(key)
        assert reader.lookup(key) is loaded

    def test_memory_entries_flush_when_a_directory_attaches_later(self, tmp_path):
        formula = Not(parse_ltl("F b"))
        key = formula_key(formula)
        early = BuchiMemo()
        early.translate_and_store(key, formula)
        early.configure_directory(tmp_path)

        later = BuchiMemo()
        assert later.configure_directory(tmp_path) == 1

    def test_corrupt_persisted_entry_falls_back_to_none(self, tmp_path):
        memo = BuchiMemo()
        memo._persisted["bad-key"] = {"schema": 999}
        assert memo.load_persisted("bad-key") is None

    def test_detach_with_none(self, tmp_path):
        memo = BuchiMemo()
        memo.configure_directory(tmp_path)
        assert memo.configure_directory(None) == 0
        assert memo._directory is None


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
