"""Overhead of the tracing layer (ISSUE acceptance bounds).

Measured claims: with tracing *disabled* (the default ``NullTracer``), the
per-span cost is a shared no-op context manager — the bound asserted here is
that the no-op cost summed over every span one untraced pass enters stays
under 2% of the untraced wall clock.  With tracing *enabled* (an in-memory
``Tracer``), a fully-instrumented verification workload stays within 10% of
the untraced baseline, as the median ratio over alternated untraced and
traced passes.  Both runs must produce bitwise-identical scores — the
parity tests in ``tests/obs`` assert that; here it is re-checked on the
measured workload so the numbers in the table describe equivalent work.
"""

import statistics
import time
import timeit

from repro.core.config import FeedbackConfig
from repro.driving import all_specifications, response_templates, training_tasks
from repro.obs import tracer as obs
from repro.obs.tracer import NullTracer, Tracer
from repro.serving import FeedbackJob, FeedbackService, ServingConfig

from conftest import print_table

#: Acceptance bounds from the issue: disabled <2%, enabled <10%.
DISABLED_OVERHEAD_BOUND = 0.02
ENABLED_OVERHEAD_BOUND = 0.10
#: Untraced/traced pass pairs timed after the warm-up and the counting pass.
TIMED_PAIRS = 10


class _CountingNullTracer(NullTracer):
    """The disabled tracer, counting the spans instrumented code enters."""

    def __init__(self):
        self.spans_entered = 0

    def span(self, name: str, *, category: str = "run", **attributes):
        self.spans_entered += 1
        return super().span(name, category=category, **attributes)


def _workload() -> list:
    """Cold verification jobs — no cache, no dedup, all formal checking."""
    jobs = []
    for task in training_tasks()[:4]:
        for kind in ("compliant", "flawed"):
            for response in response_templates(task.name, kind):
                jobs.append(FeedbackJob(task=task.name, scenario=task.scenario, response=response))
    return jobs


def _score(jobs: list) -> tuple:
    """One cold pass with serving disabled: every job is verified, every
    verification emits mc.* spans when a tracer is installed."""
    service = FeedbackService(
        all_specifications(), feedback=FeedbackConfig(), config=ServingConfig(enabled=False)
    )
    start = time.perf_counter()
    scores = service.score_batch(jobs)
    return scores, time.perf_counter() - start


def test_bench_obs_tracing_overhead(benchmark):
    jobs = _workload()

    def run():
        obs.uninstall_tracer()
        baseline_scores, warmup_seconds = _score(jobs)  # warm imports/caches
        # One more untraced pass, counting the spans it enters: only these
        # pay the no-op cost when tracing is off.
        counting = obs.install_tracer(_CountingNullTracer())
        try:
            _score(jobs)
        finally:
            obs.uninstall_tracer()
        # Alternate untraced and traced passes, so each pair runs back to
        # back at one host speed.  The host switches speed within a process
        # (passes of about 10 or 16 ms), which moves the best pass of each
        # side on its own: the ratio is the median over pairs.
        tracer = Tracer()
        baseline_times, traced_times = [], []
        for _ in range(TIMED_PAIRS):
            baseline_times.append(_score(jobs)[1])
            obs.install_tracer(tracer)
            try:
                traced_scores, seconds = _score(jobs)
            finally:
                obs.uninstall_tracer()
            traced_times.append(seconds)
        # Disabled cost: the measured price of one no-op span round trip,
        # multiplied by how many spans an untraced pass enters.
        noop_iterations = 100_000
        noop_seconds = timeit.timeit(
            lambda: obs.span("mc.check", category="modelcheck", spec="phi_1").__enter__()
            or obs.current_tracer(),
            number=noop_iterations,
        )
        per_noop = noop_seconds / noop_iterations
        return (
            baseline_scores,
            traced_scores,
            baseline_times,
            traced_times,
            len(tracer.spans()),
            counting.spans_entered,
            per_noop,
            warmup_seconds,
        )

    (
        baseline_scores,
        traced_scores,
        baseline_times,
        traced_times,
        traced_span_count,
        untraced_span_count,
        per_noop,
        warmup_seconds,
    ) = benchmark.pedantic(run, rounds=1, iterations=1)

    enabled_overhead = statistics.median(t / b for b, t in zip(baseline_times, traced_times)) - 1.0
    baseline_seconds, traced_seconds = statistics.median(baseline_times), statistics.median(traced_times)
    # Against the fastest untraced pass, the largest share the no-op spans
    # can take.
    disabled_overhead = (untraced_span_count * per_noop) / min(baseline_times)
    print_table(
        f"Tracing overhead — cold verification workload, median of {TIMED_PAIRS} pairs",
        ["mode", "seconds", "overhead vs off"],
        [
            ("untraced (NullTracer)", baseline_seconds, "—"),
            ("traced (in-memory Tracer)", traced_seconds, f"{enabled_overhead:+.1%}"),
            (
                f"disabled, {untraced_span_count} no-op spans",
                untraced_span_count * per_noop,
                f"{disabled_overhead:+.2%}",
            ),
        ],
    )
    assert traced_scores == baseline_scores, "tracing must not change scores"
    assert traced_span_count > 100, "the traced passes should have recorded real spans"
    assert untraced_span_count > 0, "the untraced pass should have entered instrumented code"
    assert disabled_overhead < DISABLED_OVERHEAD_BOUND, (
        f"disabled tracing costs {disabled_overhead:.2%} of the run "
        f"({untraced_span_count} spans x {per_noop * 1e9:.0f}ns no-op), bound is "
        f"{DISABLED_OVERHEAD_BOUND:.0%}"
    )
    assert enabled_overhead < ENABLED_OVERHEAD_BOUND, (
        f"enabled tracing adds {enabled_overhead:.1%}, bound is "
        f"{ENABLED_OVERHEAD_BOUND:.0%}: traced {traced_seconds:.2f}s vs "
        f"untraced {baseline_seconds:.2f}s"
    )
