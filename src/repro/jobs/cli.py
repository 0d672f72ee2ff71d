"""``repro-serve daemon|submit|status|watch`` — the jobs-daemon subcommands.

These share one argument/config layer with the one-shot ``repro-serve`` path
(:func:`repro.serving.cli.add_service_arguments` /
:func:`~repro.serving.cli.serving_config_from_args` /
:func:`~repro.serving.cli.load_jobs`), so a daemon is configured with exactly
the flags — and exactly the input validation — a one-shot run uses, and its
scores are bitwise-identical to scoring the same file one-shot.

* ``daemon``  — run a :class:`~repro.jobs.server.JobsDaemon`: journal-backed
  store, Unix socket, SIGTERM/SIGINT-clean shutdown (open jobs stay durable).
* ``submit``  — send a JSONL input file as one batch; with ``--wait`` block
  for the scores and write the same scored-records output as the one-shot
  path.
* ``status``  — print job records, a batch, or daemon-wide stats as JSON.
* ``watch``   — stream progress events for jobs or a batch as JSONL.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import signal
import sys
from pathlib import Path

from repro.jobs.client import JobsClient, JobsError


def build_daemon_parser() -> argparse.ArgumentParser:
    """Parser for ``repro-serve daemon`` (service flags shared with one-shot)."""
    from repro.serving.cli import add_service_arguments

    parser = argparse.ArgumentParser(
        prog="repro-serve daemon",
        description="Run the durable feedback-jobs daemon on a Unix socket.",
    )
    parser.add_argument("--socket", type=Path, required=True, help="Unix socket path to listen on (keep it short)")
    parser.add_argument("--store", type=Path, required=True, help="job-store directory (journal + snapshot); reopening resumes open jobs")
    add_service_arguments(parser)
    parser.add_argument(
        "--max-inflight-per-client", type=int, default=None,
        help="per-client cap on non-terminal jobs (default: unbounded)",
    )
    parser.add_argument(
        "--job-retries", type=int, default=2,
        help="scoring retries per job after the first failed attempt (default: 2)",
    )
    parser.add_argument(
        "--throttle-seconds", type=float, default=0.0,
        help="artificial pause before each scoring attempt (test/demo knob)",
    )
    parser.add_argument(
        "--snapshot-every", type=int, default=64,
        help="journal appends between store snapshots (default: 64)",
    )
    return parser


def build_submit_parser() -> argparse.ArgumentParser:
    """Parser for ``repro-serve submit`` (same input format as one-shot)."""
    parser = argparse.ArgumentParser(
        prog="repro-serve submit",
        description="Submit a JSONL file of {task, response} records as one batch.",
    )
    parser.add_argument("jsonl", type=Path, help="input JSONL file of {task, response} objects")
    parser.add_argument("--socket", type=Path, required=True, help="the daemon's Unix socket")
    parser.add_argument("--client", default="cli", help="client id for quota and fairness (default: cli)")
    parser.add_argument("--wait", action="store_true", help="block until scored and write the records")
    parser.add_argument(
        "-o", "--output", type=Path, default=None,
        help="with --wait: scored-records JSONL path (default: stdout)",
    )
    parser.add_argument("--timeout", type=float, default=600.0, help="socket timeout in seconds")
    return parser


def build_status_parser() -> argparse.ArgumentParser:
    """Parser for ``repro-serve status``."""
    parser = argparse.ArgumentParser(
        prog="repro-serve status",
        description="Print job records, a batch, or daemon stats as JSON.",
    )
    parser.add_argument("job_ids", nargs="*", help="job ids to look up (none: daemon stats)")
    parser.add_argument("--socket", type=Path, required=True, help="the daemon's Unix socket")
    parser.add_argument("--batch", default=None, help="print this batch and its jobs instead")
    parser.add_argument("--timeout", type=float, default=60.0, help="socket timeout in seconds")
    return parser


def build_watch_parser() -> argparse.ArgumentParser:
    """Parser for ``repro-serve watch``."""
    parser = argparse.ArgumentParser(
        prog="repro-serve watch",
        description="Stream job progress events as JSONL until all watched jobs finish.",
    )
    parser.add_argument("job_ids", nargs="*", help="job ids to watch")
    parser.add_argument("--socket", type=Path, required=True, help="the daemon's Unix socket")
    parser.add_argument("--batch", default=None, help="watch every job of this batch instead")
    parser.add_argument("--timeout", type=float, default=600.0, help="per-event socket timeout in seconds")
    return parser


def cmd_daemon(args) -> int:
    """Build store + service + daemon and serve until shutdown/SIGTERM."""
    from repro.jobs.server import JobsDaemon
    from repro.jobs.store import JobStore
    from repro.serving import Dispatcher, FeedbackService
    from repro.serving.cli import build_feedback, build_specifications, serving_config_from_args
    from repro.utils.retry import RetryPolicy

    try:
        config = serving_config_from_args(args)
        if args.backend != "serial":
            raise ValueError(
                f"--backend {args.backend} is not supported: the daemon scores one job per "
                "batch, which the process backend scores inline without starting its "
                "worker pool; use --backend serial"
            )
        if args.job_retries < 0:
            raise ValueError(f"--job-retries must be non-negative, got {args.job_retries}")
        retry = RetryPolicy(max_attempts=args.job_retries + 1)
        store = JobStore(args.store, snapshot_every=args.snapshot_every)
    except ValueError as exc:
        print(f"repro-serve daemon: {exc}", file=sys.stderr)
        return 2
    with store:
        with Dispatcher(name="repro-jobs") as dispatcher:
            with FeedbackService(
                build_specifications(args),
                feedback=build_feedback(args),
                config=config,
                seed=args.seed,
            ) as service:
                daemon = JobsDaemon(
                    args.socket,
                    store,
                    service,
                    dispatcher=dispatcher,
                    max_inflight_per_client=args.max_inflight_per_client,
                    retry=retry,
                    throttle_seconds=args.throttle_seconds,
                )
                previous = [
                    (signum, signal.signal(signum, lambda _s, _f: daemon.request_stop()))
                    for signum in (signal.SIGINT, signal.SIGTERM)
                ]
                daemon.start()
                print(
                    f"repro-jobs: serving on {args.socket} (store {args.store})",
                    file=sys.stderr,
                    flush=True,
                )
                try:
                    daemon.wait()
                finally:
                    daemon.stop()
                    for signum, handler in previous:
                        signal.signal(signum, handler)
            # Exiting the contexts drains the dispatcher (jobs mid-flight
            # finish or re-queue durably) and closes the service; the store
            # closes last, taking its final snapshot.
    print("repro-jobs: stopped", file=sys.stderr)
    return 0


def cmd_submit(args) -> int:
    """Validate the input like one-shot, submit as one batch, optionally wait."""
    from repro.serving.cli import load_jobs, scored_record, write_records

    try:
        jobs = load_jobs(args.jsonl)
    except (OSError, ValueError) as exc:
        print(f"repro-serve submit: {exc}", file=sys.stderr)
        return 2
    client = JobsClient(args.socket, client_id=args.client, timeout=args.timeout)
    result = client.create_batch([dataclasses.asdict(job) for _record, job in jobs])
    batch = result["batch"]
    print(
        f"repro-serve submit: batch {batch['batch_id']} "
        f"({len(batch['job_ids'])} jobs) accepted",
        file=sys.stderr,
        flush=True,
    )
    if not args.wait:
        print(json.dumps({"batch_id": batch["batch_id"], "job_ids": batch["job_ids"]}))
        return 0
    final = client.wait_batch(batch["batch_id"])
    ordered = [final[job_id] for job_id in batch["job_ids"]]
    unscored = [record for record in ordered if record["state"] != "succeeded"]
    if unscored:
        for record in unscored:
            print(
                f"repro-serve submit: job {record['job_id']} {record['state']}: "
                f"{record['error']}",
                file=sys.stderr,
            )
        return 1
    # The one-shot path's output records, so a submitted-and-awaited file is
    # byte-for-byte the one-shot result.
    write_records(
        (scored_record(record, job, done["score"]) for (record, job), done in zip(jobs, ordered)),
        args.output,
    )
    return 0


def cmd_status(args) -> int:
    """Print the requested records (or daemon stats) as JSON lines."""
    client = JobsClient(args.socket, timeout=args.timeout)
    if args.batch is not None:
        print(json.dumps(client.get_batch(args.batch), sort_keys=True))
        return 0
    if not args.job_ids:
        print(json.dumps(client.stats(), sort_keys=True))
        return 0
    for job_id in args.job_ids:
        print(json.dumps(client.get_status(job_id), sort_keys=True))
    return 0


def cmd_watch(args) -> int:
    """Stream progress events as JSON lines until the daemon sends ``end``."""
    if not args.job_ids and args.batch is None:
        print("repro-serve watch: pass job ids or --batch", file=sys.stderr)
        return 2
    client = JobsClient(args.socket, timeout=args.timeout)
    reason = "disconnected"
    for event in client.stream_progress(
        job_ids=args.job_ids if args.job_ids else None, batch_id=args.batch
    ):
        print(json.dumps(event, sort_keys=True), flush=True)
        if event.get("type") == "end":
            reason = event.get("reason")
    return 0 if reason == "done" else 1


_HANDLERS = {
    "daemon": (build_daemon_parser, cmd_daemon),
    "submit": (build_submit_parser, cmd_submit),
    "status": (build_status_parser, cmd_status),
    "watch": (build_watch_parser, cmd_watch),
}


def main(argv) -> int:
    """Entry point for the jobs subcommands; ``argv[0]`` is the subcommand."""
    command = argv[0]
    build, handler = _HANDLERS[command]
    args = build().parse_args(argv[1:])
    try:
        return handler(args)
    except (ConnectionRefusedError, FileNotFoundError) as exc:
        print(
            f"repro-serve {command}: cannot reach a daemon at {args.socket}: {exc}",
            file=sys.stderr,
        )
        return 1
    except JobsError as exc:
        print(f"repro-serve {command}: [{exc.error_type}] {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
