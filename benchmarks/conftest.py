"""Shared fixtures for the benchmark harness.

The expensive artifact — a full DPO-AF pipeline run with checkpoint
evaluations — is built once per benchmark session and reused by the Figure 9,
Figure 11 and headline benchmarks.  Every benchmark prints the table/series it
regenerates so the console output can be compared directly with the paper.
"""

from __future__ import annotations

import os

import pytest

from repro.core import DPOAFPipeline, PipelineConfig
from repro.core.config import FeedbackConfig, SamplingConfig
from repro.dpo import DPOConfig
from repro.driving import all_specifications
from repro.lm import PretrainConfig


def pytest_collection_modifyitems(config, items):
    """Guard single-core containers from the multicore speedup assertions.

    The ``multicore``-marked benchmarks assert real process-pool *speedups*,
    which one core cannot deliver; each already skips itself defensively, but
    marking them skipped at collection time means even an explicit
    ``-m multicore`` run on a single-core box reports an honest skip instead
    of executing minutes of benchmark just to skip at the assert.  Running
    ``pytest -m "not multicore"`` (the ``make bench`` target) excludes them
    outright on any machine.
    """
    if (os.cpu_count() or 1) >= 2:
        return
    skip = pytest.mark.skip(reason="multicore benchmarks need >= 2 CPU cores")
    for item in items:
        if "multicore" in item.keywords:
            item.add_marker(skip)


def benchmark_pipeline_config(seed: int = 0) -> PipelineConfig:
    """The configuration used to regenerate the paper's figures.

    Scaled from the paper's Llama2-7B / ~3000-pair / 200-epoch setup down to a
    few CPU-minutes.  The paper-figure tests assert the qualitative trends on
    seed 0; ``test_headline_60_to_90_percent`` asserts the headline's shape.
    """
    return PipelineConfig(
        pretrain=PretrainConfig(num_steps=280, batch_size=16, seed=seed),
        dpo=DPOConfig(
            num_epochs=25,
            batch_size=12,
            learning_rate=3e-3,
            beta=1.0,
            lora_rank=8,
            checkpoint_every=5,
            seed=seed,
        ),
        sampling=SamplingConfig(responses_per_prompt=4),
        feedback=FeedbackConfig(),
        corpus_samples_per_task=28,
        seed=seed,
    )


@pytest.fixture(scope="session")
def dpoaf_run():
    """One full DPO-AF pipeline run shared by the model-level benchmarks."""
    pipeline = DPOAFPipeline(benchmark_pipeline_config(seed=0), specifications=all_specifications())
    result = pipeline.run(evaluate_checkpoints=True)
    yield pipeline, result
    # Release the serving layer's dispatcher thread / worker pool at session
    # end — dependent benchmarks still score through the pipeline until then.
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
