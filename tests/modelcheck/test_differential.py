"""Differential tests: the fast path against the frozen naive checker.

Every catalogue task × response category × template is verified against the
full 15-rule book by both :class:`NaiveModelChecker` (the reference) and the
optimized :class:`ModelChecker`, asserting identical ``holds`` verdicts and
``satisfaction_ratio``, from the optimized report and from its
counterexample-free ``verdicts``.  Counterexamples are additionally *validated*, not
compared: the two paths may pick different lassos, so instead each reported
lasso is replayed through the naive product (every step must be a real edge)
and re-checked as a one-path Kripke structure to confirm it genuinely
violates its specification.
"""

import pytest

from repro.automata import KripkeStructure, build_product
from repro.driving import all_specifications, all_tasks, response_templates
from repro.errors import AlignmentError
from repro.glm2fsa.builder import build_controller_from_text
from repro.modelcheck import ModelChecker, NaiveModelChecker
from repro.modelcheck.fastpath import BuchiMemo

SPEC_ITEMS = tuple(all_specifications().items())


def catalogue_cases():
    """(task, category, index, controller) for every parseable template."""
    cases = []
    for task in all_tasks():
        for category in ("compliant", "flawed", "vague"):
            for index, text in enumerate(response_templates(task.name, category)):
                try:
                    controller = build_controller_from_text(
                        text, task=task.name, name=f"{task.name}_{category}_{index}"
                    )
                except AlignmentError:
                    continue  # unparseable templates score 0 before any checking
                cases.append(pytest.param(task, controller, id=f"{task.name}-{category}-{index}"))
    return cases


def lasso_structure(counterexample):
    """The reported lasso as a one-path Kripke structure (ints, looped)."""
    prefix = list(counterexample.prefix)
    cycle = list(counterexample.cycle)
    kripke = KripkeStructure(name="reported_lasso")
    steps = prefix + cycle
    for i, step in enumerate(steps):
        kripke.add_state(i, frozenset(step.label), initial=(i == 0))
    for i in range(len(steps) - 1):
        kripke.add_transition(i, i + 1)
    kripke.add_transition(len(steps) - 1, len(prefix))
    return kripke


def assert_valid_counterexample(result, product, formula):
    """The reported lasso is a real path of ``product`` and violates ``formula``."""
    ce = result.counterexample
    assert ce is not None
    steps = list(ce.prefix) + list(ce.cycle)
    # Each step is a genuine product state with the label the product assigns.
    for step in steps:
        assert step.label == product.label(step.state)
    # Each consecutive pair is a genuine product edge, including the back edge.
    for a, b in zip(steps, steps[1:]):
        assert b.state in product.successors(a.state)
    assert steps[len(ce.prefix)].state in product.successors(steps[-1].state)
    # Replayed as a standalone structure, the lasso violates the spec.
    replay = NaiveModelChecker().check(lasso_structure(ce), formula)
    assert not replay.holds


@pytest.mark.parametrize("task,controller", catalogue_cases())
def test_fast_path_matches_naive_on_catalogue(task, controller):
    model = task.model()
    naive = NaiveModelChecker()
    fast = ModelChecker(memo=BuchiMemo())
    names = [name for name, _ in SPEC_ITEMS]
    specs = [formula for _, formula in SPEC_ITEMS]

    naive_report = naive.verify_controller(model, controller, specs, spec_names=names)
    fast_report = fast.verify_controller(model, controller, specs, spec_names=names)

    assert [r.holds for r in fast_report.results] == [r.holds for r in naive_report.results]
    assert fast_report.satisfaction_ratio == naive_report.satisfaction_ratio
    fast_verdicts = fast.verdicts(model, controller, specs, spec_names=names)
    assert list(fast_verdicts) == [r.holds for r in naive_report.results]

    product = build_product(model, controller, restart_on_termination=True)
    for (name, formula), fast_result in zip(SPEC_ITEMS, fast_report.results):
        if not fast_result.holds:
            assert_valid_counterexample(fast_result, product, formula)


def test_result_cache_does_not_change_verdicts():
    """A warm checker (memo + result cache) reports exactly what a cold one does."""
    task = all_tasks()[0]
    model = task.model()
    controller = build_controller_from_text(
        response_templates(task.name, "compliant")[0], task=task.name
    )
    specs = [formula for _, formula in SPEC_ITEMS]
    warm = ModelChecker(memo=BuchiMemo())
    cold_verdicts = [r.holds for r in warm.verify_controller(model, controller, specs).results]
    warm_verdicts = [r.holds for r in warm.verify_controller(model, controller, specs).results]
    assert warm_verdicts == cold_verdicts
