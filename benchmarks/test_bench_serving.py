"""Throughput of the feedback-serving subsystem.

Measured claims: a warm cache answers a repeated workload ≥2× faster than
the cold pass; dedup alone beats the serial rescoring loop; and async
``submit_batch`` queues batches without blocking on verification.  The
workload mirrors preference-pair collection: every task's response library,
with duplicates, scored against the full 15-rule book — including the
highway-merge scenario (``merge_onto_highway``, now in the task catalogue).
"""

import time

from repro.core.config import FeedbackConfig
from repro.driving import all_specifications, response_templates, task_by_name, training_tasks
from repro.glm2fsa import semantic_parser
from repro.serving import FeedbackJob, FeedbackService, ServingConfig

from conftest import print_table

#: The highway-merge task (wired into the catalogue's training split).
MERGE_TASK = task_by_name("merge_onto_highway")

DUPLICATES_PER_RESPONSE = 3


def _cold_step_memo() -> None:
    """Empty GLM2FSA's process-wide step memo, so the next pass parses every line."""
    semantic_parser._parsed_step.cache_clear()


def _workload(duplicates: int = DUPLICATES_PER_RESPONSE) -> list:
    """Every template for a spread of tasks, duplicated as sampling would."""
    jobs = []
    for task in list(training_tasks()[:4]) + [MERGE_TASK]:
        responses = list(response_templates(task.name, "compliant"))
        responses += list(response_templates(task.name, "flawed"))
        for response in responses * duplicates:
            jobs.append(FeedbackJob(task=task.name, scenario=task.scenario, response=response))
    return jobs


def test_bench_serving_cold_vs_warm_throughput(benchmark):
    jobs = _workload()
    service = FeedbackService(
        all_specifications(),
        feedback=FeedbackConfig(),
        config=ServingConfig(cache_size=4096),
    )

    def run():
        _cold_step_memo()
        cold_start = time.perf_counter()
        cold_scores = service.score_batch(jobs)
        cold_seconds = time.perf_counter() - cold_start
        warm_start = time.perf_counter()
        warm_scores = service.score_batch(jobs)
        warm_seconds = time.perf_counter() - warm_start
        return cold_scores, warm_scores, cold_seconds, warm_seconds

    cold_scores, warm_scores, cold_seconds, warm_seconds = benchmark.pedantic(run, rounds=1, iterations=1)

    cold_throughput = len(jobs) / cold_seconds
    warm_throughput = len(jobs) / warm_seconds
    print_table(
        "Feedback serving — cold vs warm cache",
        ["pass", "responses", "seconds", "responses/s"],
        [
            ("cold", len(jobs), cold_seconds, cold_throughput),
            ("warm", len(jobs), warm_seconds, warm_throughput),
        ],
    )
    print_table(
        "Serving telemetry",
        ["dedup rate", "cache hit rate", "cache size", "unique verified"],
        [(service.metrics.dedup_rate, service.metrics.hit_rate, len(service.cache), service.metrics.cache_misses)],
    )

    assert warm_scores == cold_scores, "cache must not change scores"
    assert warm_throughput >= 2 * cold_throughput, (
        f"warm cache should be >=2x faster: cold {cold_throughput:.1f}/s, warm {warm_throughput:.1f}/s"
    )
    assert service.metrics.dedup_rate > 0, "duplicated workload must dedup"
    assert service.metrics.hit_rate > 0, "warm pass must hit the cache"


def test_bench_serving_beats_serial_rescoring(benchmark):
    """The service's whole point: repeated scoring is cheaper than the serial loop."""
    jobs = _workload()
    serial = FeedbackService(
        all_specifications(), feedback=FeedbackConfig(), config=ServingConfig(enabled=False)
    )
    served = FeedbackService(all_specifications(), feedback=FeedbackConfig())

    def run():
        _cold_step_memo()
        serial_start = time.perf_counter()
        serial_scores = serial.score_batch(jobs)
        serial_seconds = time.perf_counter() - serial_start
        _cold_step_memo()
        served_start = time.perf_counter()
        served_scores = served.score_batch(jobs)
        served_seconds = time.perf_counter() - served_start
        return serial_scores, serial_seconds, served_scores, served_seconds

    serial_scores, serial_seconds, served_scores, served_seconds = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    print_table(
        "Serial loop vs deduplicating service (same cold workload)",
        ["path", "seconds", "responses/s"],
        [
            ("serial", serial_seconds, len(jobs) / serial_seconds),
            ("service", served_seconds, len(jobs) / served_seconds),
        ],
    )
    assert served_scores == serial_scores
    # 73 of the 105 responses reach a controller scored earlier in the batch:
    # 70 exact copies and 3 templates that compile alike.  Both paths
    # model-check only the other 32, since the uncached path's verdict cache
    # answers all 73; dedup saves the service GLM2FSA and the verdict lookup
    # for the 70 copies.
    assert served_seconds < serial_seconds


def test_bench_serving_async_submission_overlaps_batches(benchmark):
    """Streaming submission: every batch is queued before the first resolves,
    and the scores match the synchronous path exactly."""
    all_jobs = _workload()
    size = max(4, len(all_jobs) // 8)
    batches = [all_jobs[i : i + size] for i in range(0, len(all_jobs), size)]

    def run():
        sync = FeedbackService(all_specifications(), feedback=FeedbackConfig())
        _cold_step_memo()
        sync_start = time.perf_counter()
        sync_scores = [sync.score_batch(batch) for batch in batches]
        sync_seconds = time.perf_counter() - sync_start
        with FeedbackService(all_specifications(), feedback=FeedbackConfig()) as service:
            _cold_step_memo()
            submit_start = time.perf_counter()
            handles = [service.submit_batch(batch) for batch in batches]
            submit_seconds = time.perf_counter() - submit_start
            async_scores = [handle.result() for handle in handles]
            drain_seconds = time.perf_counter() - submit_start
        return sync_scores, sync_seconds, async_scores, submit_seconds, drain_seconds

    sync_scores, sync_seconds, async_scores, submit_seconds, drain_seconds = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    print_table(
        f"Async submission — {len(batches)} batches",
        ["path", "submit s", "total s"],
        [
            ("score_batch (sync)", sync_seconds, sync_seconds),
            ("submit_batch (async)", submit_seconds, drain_seconds),
        ],
    )
    assert async_scores == sync_scores, "async submission must not change scores"
    # Submission is queueing, not verification: it must return far before the
    # work completes, leaving the producer free to keep sampling.
    assert submit_seconds < drain_seconds / 2


def test_bench_serving_streaming_pair_construction_overlaps_verification(benchmark):
    """Preference pairs are built from submitted batches drained in task
    order: the first task's pairs exist while later tasks are still
    verifying, instead of pair construction starting only after every batch
    has been scored.  The streamed pair lists must be identical to the
    blocking path's (same pair set, bitwise-identical scores)."""
    from repro.feedback import rank_to_pairs
    from repro.lm import format_prompt

    task_batches = []
    for task in list(training_tasks()[:4]) + [MERGE_TASK]:
        responses = list(response_templates(task.name, "compliant"))
        responses += list(response_templates(task.name, "flawed"))
        task_batches.append((task, responses))

    def run():
        # Blocking reference: score every batch, then build pairs.
        blocking_service = FeedbackService(all_specifications(), feedback=FeedbackConfig())
        _cold_step_memo()
        blocking_start = time.perf_counter()
        scored = [
            (task, responses, blocking_service.score_responses(task, responses))
            for task, responses in task_batches
        ]
        blocking_verified_seconds = time.perf_counter() - blocking_start
        blocking_pairs = [
            rank_to_pairs(format_prompt(task), responses, scores, task=task.name)
            for task, responses, scores in scored
        ]
        blocking_total_seconds = time.perf_counter() - blocking_start

        # Streaming: submit every batch, then build each task's pairs as its
        # handle resolves (batches run in submission order).
        with FeedbackService(all_specifications(), feedback=FeedbackConfig()) as service:
            _cold_step_memo()
            stream_start = time.perf_counter()
            pending = [
                (task, responses, service.submit_responses(task, responses))
                for task, responses in task_batches
            ]
            streamed_pairs: list = []
            first_pairs_at = None
            for task, responses, handle in pending:
                streamed_pairs.append(
                    rank_to_pairs(format_prompt(task), responses, handle.result(), task=task.name)
                )
                if first_pairs_at is None:
                    first_pairs_at = time.perf_counter() - stream_start
            stream_total_seconds = time.perf_counter() - stream_start
        return (
            blocking_pairs,
            blocking_verified_seconds,
            blocking_total_seconds,
            streamed_pairs,
            first_pairs_at,
            stream_total_seconds,
        )

    (
        blocking_pairs,
        blocking_verified_seconds,
        blocking_total_seconds,
        streamed_pairs,
        first_pairs_at,
        stream_total_seconds,
    ) = benchmark.pedantic(run, rounds=1, iterations=1)

    print_table(
        f"Streaming pair construction — {len(task_batches)} task batches",
        ["path", "first pairs ready (s)", "total (s)"],
        [
            ("blocking (score all, then rank)", blocking_verified_seconds, blocking_total_seconds),
            ("streaming (in-order drain)", first_pairs_at, stream_total_seconds),
        ],
    )
    assert streamed_pairs == blocking_pairs, (
        "streamed pairs must equal the blocking path's — same pair lists, bitwise scores"
    )
    # The overlap claim: the first task's pairs exist before the blocking
    # path would even have finished verification of the whole workload.
    assert first_pairs_at < blocking_verified_seconds, (
        f"streaming should start pair construction mid-verification: first pairs at "
        f"{first_pairs_at:.3f}s vs {blocking_verified_seconds:.3f}s of blocking verification"
    )
