"""Shared fixtures for the benchmark harness.

The expensive artifact — a full DPO-AF pipeline run with checkpoint
evaluations — is built once per benchmark session and reused by the Figure 9,
Figure 11 and headline benchmarks.  Every benchmark prints the table/series it
regenerates so the console output can be compared directly with the paper.
"""

from __future__ import annotations

import os

import pytest

from repro.core import DPOAFPipeline
from repro.core.config import paper_scale_config
from repro.driving import all_specifications


def pytest_collection_modifyitems(config, items):
    """Guard single-core containers from the multicore assertion.

    The one ``multicore``-marked benchmark,
    ``test_bench_jobs_daemon_overhead_is_bounded_multicore``, bounds the jobs
    daemon's overhead ratio, which holds only with a spare core for the
    daemon's threads.  Marking it skipped at collection time means even an
    explicit ``-m multicore`` run on a single-core box reports an honest skip
    instead of running the workload just to measure the scheduler.  Running
    ``pytest -m "not multicore"`` (the ``make bench`` target) excludes it
    outright on any machine.
    """
    if (os.cpu_count() or 1) >= 2:
        return
    skip = pytest.mark.skip(reason="multicore benchmarks need >= 2 CPU cores")
    for item in items:
        if "multicore" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(scope="session")
def dpoaf_run():
    """One full DPO-AF pipeline run at paper scale (seed 0), shared by the
    model-level benchmarks."""
    pipeline = DPOAFPipeline(paper_scale_config(seed=0), specifications=all_specifications())
    result = pipeline.run(evaluate_checkpoints=True)
    yield pipeline, result
    # Release the pipeline's feedback service and tracer at session end —
    # dependent benchmarks still score through the pipeline until then.
    pipeline.close()


def print_table(title: str, header: list, rows: list) -> None:
    """Console rendering of a benchmark's result table."""
    print(f"\n=== {title} ===")
    print(" | ".join(f"{h:>18}" for h in header))
    for row in rows:
        cells = []
        for value in row:
            if isinstance(value, float):
                cells.append(f"{value:>18.3f}")
            else:
                cells.append(f"{str(value):>18}")
        print(" | ".join(cells))
