"""Cold verification throughput: optimized checker vs the naive reference.

The ROADMAP's hot-path target: ≥5× cold ``verify_controller`` throughput on
the paper tasks.  "Cold" means a fresh :class:`BuchiMemo` and checker —
every automaton is translated, pruned and product-checked from scratch within
the measured pass (``verify_controller`` reports are never cached) — against the frozen :class:`NaiveModelChecker` on the
identical workload: every parseable template of every catalogue task × the
full 15-rule book.  Verdicts must agree exactly; the differential suite
(`tests/modelcheck/test_differential.py`) holds per-spec agreement and
counterexample validity, this benchmark holds the throughput floor.

Run with ``make bench-modelcheck`` or
``PYTHONPATH=src python -m pytest benchmarks/test_bench_modelcheck.py -q -s``.
"""

import time

from repro.driving import all_specifications, all_tasks, response_templates
from repro.errors import AlignmentError
from repro.glm2fsa.builder import build_controller_from_text
from repro.modelcheck import ModelChecker, NaiveModelChecker
from repro.modelcheck.fastpath import BuchiMemo

from conftest import print_table

#: Acceptance floor from the issue: ≥5× cold verification throughput.
SPEEDUP_FLOOR = 5.0


def _workload() -> list:
    """(model, controller) for every parseable catalogue template, models prebuilt."""
    work = []
    for task in all_tasks():
        model = task.model()
        for category in ("compliant", "flawed", "vague"):
            for index, text in enumerate(response_templates(task.name, category)):
                try:
                    controller = build_controller_from_text(
                        text, task=task.name, name=f"{task.name}_{category}_{index}"
                    )
                except AlignmentError:
                    continue
                work.append((model, controller))
    return work


def _verify_all(checker, work, specs) -> tuple:
    """One timed pass; returns (seconds, per-controller verdict tuples)."""
    verdicts = []
    start = time.perf_counter()
    for model, controller in work:
        report = checker.verify_controller(model, controller, specs)
        verdicts.append(tuple(r.holds for r in report.results))
    return time.perf_counter() - start, verdicts


def test_bench_modelcheck_cold_throughput(benchmark):
    work = _workload()
    specs = list(all_specifications().values())

    def run():
        # Warm imports and interpreter caches with throwaway cold passes, then
        # keep the best of two measured passes per checker so a scheduler
        # hiccup can't decide the ratio.  Every fast pass uses a private
        # fresh memo: construction is *cold* inside each measurement.
        _verify_all(NaiveModelChecker(), work, specs)
        _verify_all(ModelChecker(memo=BuchiMemo()), work, specs)
        naive_seconds, naive_verdicts = _verify_all(NaiveModelChecker(), work, specs)
        naive_seconds = min(naive_seconds, _verify_all(NaiveModelChecker(), work, specs)[0])
        fast_seconds, fast_verdicts = _verify_all(ModelChecker(memo=BuchiMemo()), work, specs)
        fast_seconds = min(
            fast_seconds, _verify_all(ModelChecker(memo=BuchiMemo()), work, specs)[0]
        )
        return naive_seconds, fast_seconds, naive_verdicts, fast_verdicts

    naive_seconds, fast_seconds, naive_verdicts, fast_verdicts = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    speedup = naive_seconds / fast_seconds
    checks = len(work) * len(specs)

    print_table(
        f"Cold verify_controller throughput — {len(work)} controllers × {len(specs)} specs",
        ["checker", "seconds", "checks/s"],
        [
            ("naive (reference)", naive_seconds, checks / naive_seconds),
            ("fastpath (cold memo)", fast_seconds, checks / fast_seconds),
            (f"speedup {speedup:.2f}×", "", ""),
        ],
    )

    assert fast_verdicts == naive_verdicts, "fast path diverged from the reference verdicts"
    assert speedup >= SPEEDUP_FLOOR, (
        f"cold speedup {speedup:.2f}× below the {SPEEDUP_FLOOR:.0f}× floor "
        f"(naive {naive_seconds:.3f}s, fast {fast_seconds:.3f}s)"
    )
