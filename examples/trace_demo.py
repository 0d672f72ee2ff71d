"""Trace demo: run the quick pipeline with tracing on and report the result.

Run with::

    python examples/trace_demo.py [TRACE_PATH]

or, equivalently::

    make trace-demo

This runs ``quick_pipeline_config`` end to end with ``trace_path`` set, so
every stage — pretraining, sampling, LTL model checking (translation,
product construction, the shared pass), pair construction, DPO training,
evaluation — lands in one Chrome/Perfetto trace-event file, and prints the
report: the stage breakdown, with the model checker's spans as rows, then
the serving and process summaries.  Open the file in
https://ui.perfetto.dev (or ``chrome://tracing``) for the timeline, or
summarise it again in the terminal::

    repro-trace report runs/quick.trace.json
"""

import dataclasses
import sys
from pathlib import Path

from repro.core import DPOAFPipeline
from repro.core.config import quick_pipeline_config
from repro.obs import load_chrome_trace, report_from_trace


def main(argv: list | None = None) -> None:
    args = sys.argv[1:] if argv is None else argv
    trace_path = Path(args[0]) if args else Path("runs") / "quick.trace.json"
    trace_path.parent.mkdir(parents=True, exist_ok=True)

    config = dataclasses.replace(quick_pipeline_config(seed=0), trace_path=str(trace_path))
    print(f"Running the quick pipeline with tracing -> {trace_path}")
    with DPOAFPipeline(config) as pipeline:
        result = pipeline.run(augment_pairs=True)
    print(
        f"Pipeline done: {len(result.preference_pairs)} preference pairs, "
        f"{result.dpo_result.history.num_steps} DPO steps.\n"
    )

    print(report_from_trace(load_chrome_trace(trace_path)))
    print(f"\nTimeline: load {trace_path} in https://ui.perfetto.dev")


if __name__ == "__main__":
    main()
