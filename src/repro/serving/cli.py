"""``repro-serve`` — score a JSONL file of responses through the feedback service.

Input: one JSON object per line with a ``task`` (a name from
:mod:`repro.driving.tasks`) and a ``response`` (the step-by-step text)::

    {"task": "turn_right_traffic_light", "response": "1. Observe the traffic light. ..."}

A record may instead name its verification ``scenario`` directly, which also
covers tasks outside the built-in catalogue::

    {"task": "merge_onto_highway", "scenario": "highway_merge", "response": "..."}

Output: the *original* objects — every extra field (ids, provenance, …) is
preserved verbatim — with the resolved ``scenario`` and an integer ``score``
merged in, one per line, followed by a telemetry summary on stderr.  The
input file is validated in full before any verification machinery is built,
so a typo'd path or malformed line is reported immediately; when ``--output``
is used the file is written through a tmp file and moved into place, so a
failure mid-run never leaves a truncated output behind.  The whole input is
scored as one ``FeedbackService.score_batch`` call.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

EPILOG = """\
backends:
  serial    score cache misses inline — the default and the bitwise
            reference path
  process   ProcessPoolExecutor; each worker builds the verifier/world-model
            stack once and scores chunks of misses in parallel — use this for
            large cold batches on multi-core machines (small batches fall
            back to serial automatically)

daemon mode:
  repro-serve daemon --socket S --store DIR [service flags]
                      run feedback scoring as a durable multi-client service:
                      every job is journaled before it is acknowledged, so a
                      killed daemon restarted on the same --store resumes and
                      finishes every accepted job exactly once, with scores
                      identical to a one-shot run (serial backend only: the
                      daemon scores one job per batch)
  repro-serve submit|status|watch --socket S
                      submit a JSONL file as a batch (--wait writes the same
                      scored records a one-shot run would), query job/batch/
                      daemon state, or stream progress events (docs/jobs.md)

training data:
  --pairs-output PATH write a DPO-ready preference dataset next to the scored
                      records: responses are grouped per task, ranked by
                      score (canonically — input order never matters), turned
                      into preference pairs, tokenised with a vocabulary fit
                      on the input, and emitted as one encoded pair per JSONL
                      line (token ids + response-mask starts; load it with
                      repro.dpo.read_encoded_pairs).  The file is
                      byte-identical on every backend.
"""


#: Subcommands routed to :mod:`repro.jobs.cli` (the daemon mode); everything
#: else is the original one-shot scoring path, byte-for-byte.
JOBS_COMMANDS = ("daemon", "submit", "status", "watch")


def add_service_arguments(parser: argparse.ArgumentParser) -> None:
    """Add the service/config flags shared by every ``repro-serve`` entry point.

    The one-shot parser and the ``daemon`` subcommand both call this, so a
    daemon is configured with exactly the flags a one-shot run understands —
    same names, same defaults, same help text.  Pair with
    :func:`serving_config_from_args` / :func:`build_specifications` /
    :func:`build_feedback` to turn the parsed values into service inputs.
    """
    parser.add_argument("--mode", choices=("formal", "empirical"), default="formal", help="feedback channel")
    parser.add_argument("--core-specs", action="store_true", help="score against Φ1-Φ5 only instead of all 15 rules")
    parser.add_argument(
        "--backend", choices=("serial", "process"), default="serial", help="worker-pool backend"
    )
    parser.add_argument("--max-workers", type=int, default=4, help="worker-pool width")
    parser.add_argument("--cache-size", type=int, default=4096, help="LRU bound on the result cache")
    parser.add_argument("--seed", type=int, default=0, help="seed for empirical trace collection")


def build_specifications(args) -> dict:
    """The specification set the parsed arguments select (core or all 15)."""
    from repro.driving.specifications import all_specifications, core_specifications

    return core_specifications() if args.core_specs else all_specifications()


def build_feedback(args):
    """The :class:`~repro.core.config.FeedbackConfig` for ``--mode``."""
    from repro.core.config import FeedbackConfig

    return FeedbackConfig(use_empirical=args.mode == "empirical")


def serving_config_from_args(args):
    """Build the :class:`~repro.serving.config.ServingConfig` the flags describe.

    Raises ``ValueError`` exactly as ``ServingConfig`` does.
    """
    from repro.serving import ServingConfig

    return ServingConfig(
        backend=args.backend,
        max_workers=args.max_workers,
        cache_size=args.cache_size,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Score step-by-step driving responses through the batched feedback service.",
        epilog=EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("jsonl", type=Path, help="input JSONL file of {task, response} objects")
    parser.add_argument("-o", "--output", type=Path, default=None, help="output JSONL path (default: stdout)")
    add_service_arguments(parser)
    parser.add_argument(
        "--pairs-output", type=Path, default=None,
        help="also write DPO-ready encoded preference pairs (JSONL) to this path",
    )
    parser.add_argument(
        "--trace", type=Path, default=None,
        help="export a Chrome/Perfetto trace of the run to this path "
        "(inspect with repro-trace report or ui.perfetto.dev)",
    )
    return parser


def load_jobs(path: Path) -> list:
    """Parse the input JSONL into ``(record, FeedbackJob)`` pairs.

    The full input record is kept so the output can preserve caller metadata.
    A bad line raises ``ValueError`` prefixed with ``path:line:``.
    """
    from repro.serving.scheduler import FeedbackJob

    jobs = []
    for line_number, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        # Not only JSONDecodeError: nesting deeper than the parser's stack
        # raises RecursionError, an over-long integer literal ValueError.
        try:
            record = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{path}:{line_number}: invalid JSON ({exc})") from exc
        try:
            jobs.append((record, FeedbackJob.from_record(record)))
        except ValueError as exc:
            raise ValueError(f"{path}:{line_number}: {exc}") from exc
    return jobs


def write_pairs(jobs, scores, output: Path) -> tuple:
    """Build and write DPO-ready encoded preference pairs from scored records.

    Responses are grouped per ``task`` (first-occurrence order, input order
    within a group), ranked with the canonical, order-independent
    :func:`~repro.feedback.ranker.rank_to_pairs`, tokenised with
    :func:`~repro.dpo.dataset.encode_preference_pair`, and written to
    ``output`` atomically, one :func:`~repro.dpo.dataset.encoded_pair_record`
    per JSONL line — reloadable with :func:`repro.dpo.read_encoded_pairs`.
    Every input is deterministic (the tokenizer vocabulary is fit on the
    records in input order), so the file is byte-identical however the
    scores were obtained.  Returns ``(pairs written, encode seconds)``.
    """
    from repro.dpo.dataset import encode_preference_pair, encoded_pair_record
    from repro.driving.tasks import task_by_name
    from repro.feedback.ranker import rank_to_pairs
    from repro.lm.corpus import format_document, format_prompt
    from repro.lm.tokenizer import Tokenizer
    from repro.utils.atomic import write_text_atomic

    grouped: dict = {}
    for (record, _job), score in zip(jobs, scores):
        grouped.setdefault(record["task"], ([], []))
        responses, task_scores = grouped[record["task"]]
        responses.append(record["response"])
        task_scores.append(score)

    def prompt_for(task_name: str) -> str:
        try:
            return format_prompt(task_by_name(task_name))
        except KeyError:  # off-catalogue task scored via an explicit scenario
            return format_prompt(task_name)

    prompts = {task: prompt_for(task) for task in grouped}
    # The vocabulary covers every document the pairs will encode, fit in
    # deterministic input order.
    texts = []
    for task, (responses, _task_scores) in grouped.items():
        texts.append(prompts[task])
        texts.extend(format_document(prompts[task], response) for response in responses)
    tokenizer = Tokenizer.fit(texts)

    pairs = [
        pair
        for task, (responses, task_scores) in grouped.items()
        for pair in rank_to_pairs(prompts[task], responses, task_scores, task=task)
    ]
    started = time.perf_counter()
    lines = "".join(
        json.dumps(encoded_pair_record(encode_preference_pair(pair, tokenizer))) + "\n" for pair in pairs
    )
    encode_seconds = time.perf_counter() - started
    write_text_atomic(output, lines)
    return len(pairs), encode_seconds


def scored_record(record: dict, job, score: int) -> dict:
    """The output line for one input record: every input field, plus the
    resolved ``scenario`` and the ``score``."""
    return {**record, "scenario": job.scenario, "score": score}


def write_records(records, output: Path | None) -> None:
    """Write scored records to ``output`` (atomically) or stdout."""
    lines = "".join(json.dumps(record) + "\n" for record in records)
    if output is None:
        sys.stdout.write(lines)
        return
    from repro.utils.atomic import write_text_atomic

    write_text_atomic(output, lines)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in JOBS_COMMANDS:
        # Daemon mode lives in repro.jobs (imported lazily so the one-shot
        # path pays nothing for it); everything below is unchanged.
        from repro.jobs.cli import main as jobs_main

        return jobs_main(argv)
    args = build_parser().parse_args(argv)

    # Validate and load the whole input before building any verification
    # machinery: a bad path or malformed line must fail fast and cheap.
    try:
        jobs = load_jobs(args.jsonl)
    except (OSError, ValueError) as exc:
        print(f"repro-serve: {exc}", file=sys.stderr)
        return 2

    from repro.serving import FeedbackService

    specifications = build_specifications(args)
    try:
        config = serving_config_from_args(args)
    except ValueError as exc:
        print(f"repro-serve: {exc}", file=sys.stderr)
        return 2
    from repro.obs import tracer as obs

    # Tracing must be live before the service is built: the service captures
    # the tracer's shard directory into its worker payload, which is how
    # process-backend workers know where to write their span shards.
    tracer = None
    if args.trace is not None:
        tracer = obs.Tracer.for_trace_file(args.trace)
        obs.install_tracer(tracer)
    # The context manager shuts down the worker pool on exit.
    with FeedbackService(
        specifications,
        feedback=build_feedback(args),
        config=config,
        seed=args.seed,
    ) as service:
        scores = service.score_batch([job for _record, job in jobs])

    write_records(
        (scored_record(record, job, score) for (record, job), score in zip(jobs, scores)),
        args.output,
    )
    if args.pairs_output is not None:
        pair_count, encode_seconds = write_pairs(jobs, scores, args.pairs_output)
        print(
            f"wrote {pair_count} encoded preference pairs to {args.pairs_output} "
            f"(encode stage {encode_seconds:.2f}s)",
            file=sys.stderr,
        )

    # One MetricsRegistry snapshot feeds both the stderr summary and the
    # exported trace — the same code path the pipeline's telemetry uses.
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.report import format_serving_summary

    registry = MetricsRegistry()
    registry.register_provider("serving", service.metrics.snapshot)
    snapshot = registry.snapshot()
    print(format_serving_summary(snapshot["serving"]), file=sys.stderr)
    if tracer is not None:
        from repro.obs.export import write_chrome_trace

        if obs.current_tracer() is tracer:
            obs.uninstall_tracer()
        write_chrome_trace(args.trace, tracer, metrics=snapshot)
        tracer.close()
        print(f"wrote trace to {args.trace}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
