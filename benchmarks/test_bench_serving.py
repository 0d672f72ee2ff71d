"""Throughput of the feedback-serving subsystem.

Measured claims: a warm cache answers a repeated workload ≥2× faster than
the cold pass; dedup alone beats the serial rescoring loop; the ``"process"``
backend scales cold-batch formal verification with worker count on multi-core
machines (on a single-core machine the sweep still runs and must stay
score-identical, but no speedup is asserted — the hard speedup assertion
lives in the ``multicore``-marked benchmark, selectable with ``-m multicore``
on capable CI); a persistent :class:`WorkerPool` forks its executor once for
a whole stream of cold batches where the per-batch path forks once *per*
batch; async ``submit_batch`` queues batches without blocking on
verification; and flush-time compaction keeps a bounded shared cache
directory under its entry budget across runs.  The workload mirrors
preference-pair collection: every task's response library, with duplicates,
scored against the full 15-rule book — including the highway-merge scenario
(``merge_onto_highway``, now in the task catalogue).
"""

import os
import time

import pytest

from repro.core.config import FeedbackConfig
from repro.driving import all_specifications, response_templates, task_by_name, training_tasks
from repro.serving import (
    CacheDirectory,
    FeedbackJob,
    FeedbackService,
    ServingConfig,
    WorkerPayload,
    WorkerPool,
)

from conftest import print_table

#: The highway-merge task (wired into the catalogue's training split).
MERGE_TASK = task_by_name("merge_onto_highway")

DUPLICATES_PER_RESPONSE = 3


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
        serial_start = time.perf_counter()
        serial_scores = serial.score_batch(jobs)
        serial_seconds = time.perf_counter() - serial_start
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


def _unique_cold_workload(copies: int = 4) -> list:
    """``copies`` canonically-distinct variants of every template: no repeated text.

    Each variant appends a different number of benign trailing steps, so no
    two share a canonical form (no dedup, no service-cache hits) while all
    remain parseable controllers.  Variants of different templates can
    still compile to one controller: at ``copies=4``, 12 of the 140
    responses reach a structure seen earlier in the batch, and a verifier
    that has checked it answers them from its verdict cache.  Serially the
    batch takes 0.2–0.4 s on a 2-core host, of which the process pool's
    start-up (fork, initializer, first dispatch) is ~15 ms.
    """
    jobs = []
    for job in _workload(duplicates=1):
        steps = len(job.response.splitlines())
        for copy in range(copies):
            suffix = "".join(
                f"\n{steps + 1 + extra}. If there is a pedestrian, stop." for extra in range(copy)
            )
            jobs.append(FeedbackJob(task=job.task, scenario=job.scenario, response=job.response + suffix))
    return jobs


def test_bench_serving_process_backend_worker_scaling(benchmark):
    """Cold formal batches through the process backend, sweeping pool width.

    No two responses share a canonical text (no dedup, no service-cache
    hits), so the batch is GLM2FSA and verification work — the workload the
    serial loop cannot spread across cores.  The serial verifier answers the
    12 of 140 responses whose controller it has already checked from its
    verdict cache; a process worker only those whose first occurrence it
    scored itself.  Scores must be bitwise-identical across the sweep; the
    multi-core speedup is asserted only when the machine actually has the
    cores to show it.
    """
    base_jobs = _unique_cold_workload()
    sweeps = [("serial", 1), ("process", 1), ("process", 2), ("process", 4)]

    def run():
        results = {}
        for backend, workers in sweeps:
            service = FeedbackService(
                all_specifications(),
                feedback=FeedbackConfig(),
                config=ServingConfig(backend=backend, max_workers=workers, cache_size=4096),
            )
            start = time.perf_counter()
            scores = service.score_batch(base_jobs)
            seconds = time.perf_counter() - start
            results[(backend, workers)] = (scores, seconds)
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        (backend, workers, seconds, len(base_jobs) / seconds)
        for (backend, workers), (_, seconds) in results.items()
    ]
    print_table(
        f"Process backend — cold formal batch vs workers ({os.cpu_count()} cores available)",
        ["backend", "workers", "seconds", "responses/s"],
        rows,
    )

    reference = results[("serial", 1)][0]
    assert all(scores == reference for scores, _ in results.values()), (
        "every backend/worker combination must produce bitwise-identical scores"
    )
    if (os.cpu_count() or 1) >= 2:
        serial_seconds = results[("serial", 1)][1]
        best_process = min(results[("process", w)][1] for w in (2, 4))
        assert best_process < serial_seconds, (
            f"on a {os.cpu_count()}-core machine the process backend should beat "
            f"serial on a cold batch: serial {serial_seconds:.2f}s, process {best_process:.2f}s"
        )


def test_bench_serving_persistent_pool_amortizes_fork_cost(benchmark):
    """The tentpole claim: a stream of cold batches pays the process-pool
    fork/initializer cost once, not once per batch.

    The per-batch path (a throwaway ``WorkerPool`` per batch, closed by its
    ``with`` block — the pre-refactor behaviour) is measured against one
    persistent
    :class:`WorkerPool` scoring the same batch stream.  Scores must be
    bitwise-identical; the launch counts (``len(batches)`` vs 1) are the
    structural evidence, the wall-clock delta the measured one.
    """
    payload = WorkerPayload.from_feedback(all_specifications(), FeedbackConfig(), seed=0)
    fallback = payload.build_scorer()
    all_jobs = _unique_cold_workload(copies=2)
    batch_count = 6
    size = max(4, len(all_jobs) // batch_count)
    batches = [all_jobs[i : i + size] for i in range(0, len(all_jobs), size)]
    batches = [batch for batch in batches if len(batch) >= 4]

    def run():
        per_batch_start = time.perf_counter()
        per_batch_scores = []
        for batch in batches:
            with WorkerPool(payload, max_workers=2) as throwaway:
                per_batch_scores.append(throwaway.run(batch, fallback=fallback))
        per_batch_seconds = time.perf_counter() - per_batch_start
        pool = WorkerPool(payload, max_workers=2)
        persistent_start = time.perf_counter()
        persistent_scores = [pool.run(batch, fallback=fallback) for batch in batches]
        persistent_seconds = time.perf_counter() - persistent_start
        starts = pool.starts
        pool.close()
        return per_batch_scores, per_batch_seconds, persistent_scores, persistent_seconds, starts

    per_batch_scores, per_batch_seconds, persistent_scores, persistent_seconds, starts = (
        benchmark.pedantic(run, rounds=1, iterations=1)
    )
    jobs_total = sum(len(batch) for batch in batches)
    print_table(
        f"Process pool — per-batch fork vs persistent pool ({len(batches)} batches)",
        ["path", "pool launches", "seconds", "responses/s"],
        [
            ("per-batch pool", len(batches), per_batch_seconds, jobs_total / per_batch_seconds),
            ("persistent pool", starts, persistent_seconds, jobs_total / persistent_seconds),
        ],
    )
    assert persistent_scores == per_batch_scores, "pool reuse must not change scores"
    assert starts <= 1, "a persistent pool must fork its executor at most once"
    if starts == 1:
        # Multiprocessing works here, so the per-batch path really paid
        # len(batches) fork+initializer rounds; reuse must not be slower.
        assert persistent_seconds < per_batch_seconds, (
            f"persistent pool should beat per-batch forking: "
            f"{persistent_seconds:.2f}s vs {per_batch_seconds:.2f}s"
        )


@pytest.mark.multicore
def test_bench_serving_process_pool_speedup_multicore(benchmark):
    """Cold workload of canonically-distinct responses (no dedup, no
    service-cache hits; 12 of 140 reuse a verdict, see
    :func:`_unique_cold_workload`): the persistent process pool must beat
    the serial loop when real cores are available.

    Marked ``multicore`` (see pytest.ini): select it with ``-m multicore`` on
    a CI machine with >= 2 cores; on fewer cores it skips rather than assert
    a speedup the hardware cannot deliver.
    """
    if (os.cpu_count() or 1) < 2:
        pytest.skip("needs >= 2 CPU cores to demonstrate a process-pool speedup")
    jobs = _unique_cold_workload()

    def run():
        serial = FeedbackService(
            all_specifications(), feedback=FeedbackConfig(), config=ServingConfig(backend="serial")
        )
        serial_start = time.perf_counter()
        serial_scores = serial.score_batch(jobs)
        serial_seconds = time.perf_counter() - serial_start
        with FeedbackService(
            all_specifications(),
            feedback=FeedbackConfig(),
            config=ServingConfig(backend="process", max_workers=min(4, os.cpu_count() or 1)),
        ) as pooled:
            pooled_start = time.perf_counter()
            pooled_scores = pooled.score_batch(jobs)
            pooled_seconds = time.perf_counter() - pooled_start
        return serial_scores, serial_seconds, pooled_scores, pooled_seconds

    serial_scores, serial_seconds, pooled_scores, pooled_seconds = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    print_table(
        f"Process pool speedup ({os.cpu_count()} cores)",
        ["backend", "seconds", "responses/s"],
        [
            ("serial", serial_seconds, len(jobs) / serial_seconds),
            ("process", pooled_seconds, len(jobs) / pooled_seconds),
        ],
    )
    assert pooled_scores == serial_scores
    assert pooled_seconds < serial_seconds, (
        f"process pool should beat serial on {os.cpu_count()} cores: "
        f"{pooled_seconds:.2f}s vs {serial_seconds:.2f}s"
    )


def test_bench_serving_async_submission_overlaps_batches(benchmark):
    """Streaming submission: every batch is queued before the first resolves,
    and the scores match the synchronous path exactly."""
    all_jobs = _workload()
    size = max(4, len(all_jobs) // 8)
    batches = [all_jobs[i : i + size] for i in range(0, len(all_jobs), size)]

    def run():
        sync = FeedbackService(all_specifications(), feedback=FeedbackConfig())
        sync_start = time.perf_counter()
        sync_scores = [sync.score_batch(batch) for batch in batches]
        sync_seconds = time.perf_counter() - sync_start
        with FeedbackService(all_specifications(), feedback=FeedbackConfig()) as service:
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


def test_bench_serving_compaction_bounds_shard_size(benchmark, tmp_path):
    """A bounded shared cache directory stays under its budget across runs."""
    shared = str(tmp_path / "bounded_cache")
    max_entries = 32

    def run():
        sizes = []
        for round_index in range(3):
            with FeedbackService(
                all_specifications(),
                feedback=FeedbackConfig(),
                config=ServingConfig(
                    shared_cache_dir=shared, shared_cache_max_entries=max_entries
                ),
            ) as service:
                service.score_batch(_unique_cold_workload(copies=1 + round_index))
            directory = CacheDirectory(shared)
            sizes.append(
                (
                    round_index,
                    len(directory.shard_entries(service._fingerprint)),
                    sum(path.stat().st_size for path in directory.shard_files()),
                )
            )
        return sizes

    sizes = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        f"Shared cache compaction (shared_cache_max_entries={max_entries})",
        ["run", "shard entries", "directory bytes"],
        sizes,
    )
    assert all(entries <= max_entries for _, entries, _ in sizes), (
        "flush-time compaction must keep every shard under the entry budget"
    )


def test_bench_serving_shared_cache_dir_warm_starts_across_services(benchmark, tmp_path):
    """Two independent services sharing a cache directory: run 2 is all hits."""
    jobs = _workload()
    shared = str(tmp_path / "shared_cache")

    def run():
        first = FeedbackService(
            all_specifications(), feedback=FeedbackConfig(),
            config=ServingConfig(shared_cache_dir=shared),
        )
        cold_start = time.perf_counter()
        cold_scores = first.score_batch(jobs)
        cold_seconds = time.perf_counter() - cold_start
        first.flush()
        second = FeedbackService(
            all_specifications(), feedback=FeedbackConfig(),
            config=ServingConfig(shared_cache_dir=shared),
        )
        warm_start = time.perf_counter()
        warm_scores = second.score_batch(jobs)
        warm_seconds = time.perf_counter() - warm_start
        return first, second, cold_scores, warm_scores, cold_seconds, warm_seconds

    first, second, cold_scores, warm_scores, cold_seconds, warm_seconds = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    print_table(
        "Shared cache directory — independent services, same fingerprint",
        ["run", "seconds", "responses/s", "hit rate", "warm-started"],
        [
            ("cold", cold_seconds, len(jobs) / cold_seconds, first.metrics.hit_rate, first.metrics.warm_start_entries),
            ("warm", warm_seconds, len(jobs) / warm_seconds, second.metrics.hit_rate, second.metrics.warm_start_entries),
        ],
    )
    assert warm_scores == cold_scores, "a shared cache must not change scores"
    assert second.metrics.warm_start_entries > 0, "run 2 must warm-start from run 1's shard"
    assert second.metrics.cache_misses == 0 and second.metrics.hit_rate == 1.0
    assert warm_seconds < cold_seconds
