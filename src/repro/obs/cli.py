"""``repro-trace`` — inspect traces exported by a traced run.

Usage::

    repro-trace report RUN.trace.json

``report`` prints the human summary of a Chrome/Perfetto trace written by
``repro-serve --trace`` or ``PipelineConfig(trace_path=...)``: the stage
breakdown (model-checker spans included), dispatcher queue-depth
statistics, and the serving and process telemetry embedded in the file.  The
file itself remains loadable in `Perfetto <https://ui.perfetto.dev>`_ for
the full timeline view.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-trace`` argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro-trace",
        description="Summarise Chrome/Perfetto traces exported by traced repro runs.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    report = commands.add_parser("report", help="print the stage breakdown and run telemetry of a trace")
    report.add_argument("trace", type=Path, help="trace file written by a traced run")
    return parser


def main(argv=None) -> int:
    """Entry point of the ``repro-trace`` console script."""
    args = build_parser().parse_args(argv)
    from repro.obs.export import load_chrome_trace
    from repro.obs.report import report_from_trace

    try:
        document = load_chrome_trace(args.trace)
    except (OSError, ValueError) as exc:
        print(f"repro-trace: {exc}", file=sys.stderr)
        return 2
    print(report_from_trace(document))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
