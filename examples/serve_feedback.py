"""Score a JSONL file of responses through the batched feedback service.

Run with::

    PYTHONPATH=src python examples/serve_feedback.py responses.jsonl

or, after ``pip install -e .``, as the ``repro-serve`` console command.  With
no argument, a two-part demonstration runs (the serving subsystem's
quickstart; see ``docs/serving.md`` for the architecture behind it):

1. *CLI* — a small workload is generated from the response library
   (including the highway-merge task) and scored in one ``repro-serve``
   invocation, in which each duplicated response verifies once.
2. *Python submission API* — the same workload is scored through
   ``FeedbackService.submit_batch``: batches are queued, and collecting each
   handle in submission order scores that batch on this thread, so each
   batch's scores can be used before the next one is scored.  (The pipeline
   itself calls the synchronous ``score_batch`` path.)
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from repro.driving import response_templates, task_by_name, training_tasks
from repro.serving.cli import main as serve_main


def _demo_tasks() -> list:
    return list(training_tasks()[:4]) + [task_by_name("merge_onto_highway")]


def demo_cli(workdir: Path) -> None:
    """The CLI quickstart: score a JSONL file of responses."""
    jsonl = workdir / "responses.jsonl"

    with jsonl.open("w") as out:
        for task in _demo_tasks():
            # Duplicates on purpose: the dedup layer should absorb them.
            templates = list(response_templates(task.name, "compliant")) * 2
            templates += list(response_templates(task.name, "flawed"))
            for index, response in enumerate(templates):
                record = {"task": task.name, "response": response, "id": f"{task.name}/{index}"}
                out.write(json.dumps(record) + "\n")

    print("== repro-serve ==", file=sys.stderr)
    serve_main([str(jsonl), "-o", str(workdir / "scored.jsonl")])
    print(f"scored output: {workdir / 'scored.jsonl'}", file=sys.stderr)


def demo_submit() -> None:
    """The Python-side submission API: submit_batch, then collect in order."""
    from repro.core.config import FeedbackConfig
    from repro.driving import all_specifications
    from repro.serving import FeedbackService

    print("\n== submission API (submit_batch, collected in order) ==", file=sys.stderr)
    # The service starts no thread; closing it at the end of the `with` block
    # scores anything still queued.
    with FeedbackService(all_specifications(), feedback=FeedbackConfig()) as service:
        # Submit one batch per task; each call queues the batch and returns a
        # PendingBatch handle at once.
        handles = []
        for task in _demo_tasks():
            responses = list(response_templates(task.name, "compliant"))
            responses += list(response_templates(task.name, "flawed"))
            handles.append((task.name, service.submit_responses(task, responses)))

        # Collecting a handle scores the queued batches up to and including
        # its own, in submission order, so draining the handles in that order
        # scores one batch per result() call.
        for name, handle in handles:
            scores = handle.result()
            print(
                f"  {name:30s} {len(scores):2d} responses, "
                f"scores {min(scores)}..{max(scores)}",
                file=sys.stderr,
            )
        telemetry = service.metrics.snapshot()
    print(
        f"  {telemetry['jobs']} jobs, dedup rate {telemetry['dedup_rate']:.0%}",
        file=sys.stderr,
    )


def demo() -> int:
    workdir = Path(tempfile.mkdtemp(prefix="repro_serve_"))
    demo_cli(workdir)
    demo_submit()
    return 0


if __name__ == "__main__":
    raise SystemExit(serve_main() if len(sys.argv) > 1 else demo())
