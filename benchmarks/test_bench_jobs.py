"""Overhead of the durable jobs daemon over direct ``score_batch`` calls.

Measured claims: admitting a job — validate, journal (fsync), quota, queue —
is milliseconds, not scoring-time; pushing a workload through the daemon
(socket + journal + per-job scheduling) costs a bounded factor over the
one-shot ``FeedbackService.score_batch`` path; and scores are identical in
both paths, always.  Parity is asserted on every machine; the throughput
*ratio* assertion is ``multicore``-marked (see pytest.ini) because on a
single core the daemon's accept/journal threads contend with scoring for
the GIL and the ratio is noise.
"""

import shutil
import statistics
import tempfile
import threading
import time
from pathlib import Path

import pytest

from repro.core.config import FeedbackConfig
from repro.driving import all_specifications, response_templates, training_tasks
from repro.jobs import JobsClient, JobsDaemon, JobStore
from repro.serving import Dispatcher, FeedbackJob, FeedbackService, ServingConfig

from conftest import print_table


def _workload() -> list:
    """Distinct (task, scenario, response) triples — no dedup shortcuts."""
    jobs = []
    for task in training_tasks()[:4]:
        for kind in ("compliant", "flawed"):
            for response in response_templates(task.name, kind):
                jobs.append(
                    FeedbackJob(task=task.name, scenario=task.scenario, response=response)
                )
    seen = set()
    unique = []
    for job in jobs:
        if job.response not in seen:
            seen.add(job.response)
            unique.append(job)
    return unique


def _service() -> FeedbackService:
    return FeedbackService(
        all_specifications(),
        feedback=FeedbackConfig(),
        config=ServingConfig(),
    )


class _LiveDaemon:
    """An in-process daemon over the real service, on a scratch store."""

    def __init__(self, root: Path):
        self.dispatcher = Dispatcher(name="bench-jobs")
        self.store = JobStore(root / "store")
        self.service = _service()
        self.daemon = JobsDaemon(
            root / "daemon.sock", self.store, self.service, dispatcher=self.dispatcher
        )
        self.daemon.start()
        self.client = JobsClient(root / "daemon.sock", client_id="bench", timeout=600)

    def close(self):
        self.daemon.stop()
        self.service.close()
        self.dispatcher.close()
        self.store.close()
        shutil.rmtree(self.store.root.parent, ignore_errors=True)


def test_bench_jobs_submission_latency(benchmark):
    """Admission returns in milliseconds even while the worker is scoring."""
    jobs = _workload()
    root = Path(tempfile.mkdtemp(prefix="bench-jobs-", dir="/tmp"))
    live = _LiveDaemon(root)
    try:

        def run():
            latencies = []
            job_ids = []
            for job in jobs:
                start = time.perf_counter()
                record = live.client.create_job(job.task, job.response)
                latencies.append(time.perf_counter() - start)
                job_ids.append(record["job_id"])
            return latencies, job_ids

        (latencies, job_ids) = benchmark.pedantic(run, rounds=1, iterations=1)
        final = live.client.wait(job_ids)
        submit_mean = statistics.mean(latencies)
        submit_p95 = sorted(latencies)[int(0.95 * (len(latencies) - 1))]
        print_table(
            "Jobs daemon — submission latency (journal + quota + queue)",
            ["jobs", "mean ms", "p95 ms", "max ms"],
            [(len(jobs), submit_mean * 1e3, submit_p95 * 1e3, max(latencies) * 1e3)],
        )
        assert all(job["state"] == "succeeded" for job in final.values())
        # Admission must never wait on scoring: each scored job takes orders
        # of magnitude longer than its own admission.
        assert submit_p95 < 2.0, f"p95 submission latency {submit_p95:.3f}s"
    finally:
        live.close()


N_CLIENTS = 4


def _run_oneshot(jobs):
    service = _service()
    start = time.perf_counter()
    scores = service.score_batch(jobs)
    seconds = time.perf_counter() - start
    service.close()
    return scores, seconds


def _run_through_daemon(jobs, n_clients=N_CLIENTS):
    """Score ``jobs`` via ``n_clients`` concurrent clients of one daemon.

    Returns scores in workload order (responses are unique, so they key the
    merge) and the wall-clock seconds from first submission to last result.
    """
    root = Path(tempfile.mkdtemp(prefix="bench-jobs-", dir="/tmp"))
    live = _LiveDaemon(root)
    try:
        shards = [jobs[i::n_clients] for i in range(n_clients)]
        merged = {}
        lock = threading.Lock()

        def submit(index, shard):
            client = JobsClient(
                root / "daemon.sock", client_id=f"bench-{index}", timeout=600
            )
            batch = client.create_batch(
                [{"task": job.task, "response": job.response} for job in shard]
            )["batch"]
            final = client.wait_batch(batch["batch_id"])
            with lock:
                for record in final.values():
                    merged[record["response"]] = record["score"]

        threads = [
            threading.Thread(target=submit, args=(index, shard))
            for index, shard in enumerate(shards)
            if shard
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        seconds = time.perf_counter() - start
        return [merged[job.response] for job in jobs], seconds
    finally:
        live.close()


def test_bench_jobs_daemon_throughput_parity_vs_oneshot(benchmark):
    """Same scores through N concurrent clients as through ``score_batch``."""
    jobs = _workload()

    def run():
        oneshot_scores, oneshot_seconds = _run_oneshot(jobs)
        daemon_scores, daemon_seconds = _run_through_daemon(jobs)
        return oneshot_scores, daemon_scores, oneshot_seconds, daemon_seconds

    oneshot_scores, daemon_scores, oneshot_seconds, daemon_seconds = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    print_table(
        f"Jobs daemon ({N_CLIENTS} concurrent clients) vs one-shot score_batch",
        ["path", "jobs", "seconds", "jobs/s"],
        [
            ("one-shot", len(jobs), oneshot_seconds, len(jobs) / oneshot_seconds),
            ("daemon", len(jobs), daemon_seconds, len(jobs) / daemon_seconds),
            ("overhead ratio", "", daemon_seconds / oneshot_seconds, ""),
        ],
    )
    # The parity claim holds on any machine, loaded or not.
    assert daemon_scores == oneshot_scores, "daemon must score identically to one-shot"


@pytest.mark.multicore
def test_bench_jobs_daemon_overhead_is_bounded_multicore(benchmark):
    """With a spare core for the daemon's threads, durability costs < 2×.

    Marked ``multicore``: on one core the daemon's socket/journal threads
    time-slice against scoring and the ratio measures the scheduler, not the
    subsystem.
    """
    jobs = _workload()

    def run():
        oneshot_scores, oneshot_seconds = _run_oneshot(jobs)
        daemon_scores, daemon_seconds = _run_through_daemon(jobs)
        return oneshot_scores, daemon_scores, oneshot_seconds, daemon_seconds

    oneshot_scores, daemon_scores, oneshot_seconds, daemon_seconds = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    ratio = daemon_seconds / oneshot_seconds
    print_table(
        f"Jobs daemon overhead ({N_CLIENTS} clients, multicore)",
        ["one-shot s", "daemon s", "ratio"],
        [(oneshot_seconds, daemon_seconds, ratio)],
    )
    assert daemon_scores == oneshot_scores
    assert ratio < 2.0, f"daemon overhead ratio {ratio:.2f} >= 2.0"
