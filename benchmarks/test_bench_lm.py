"""Tokens/s and DPO-throughput benchmarks for the vectorized LM core.

Run via ``make bench-lm``.  Three decode paths sample the same frontier —
every training-task prompt × 4 lanes — from identical per-lane RNG streams:

* **serial** — ``sample_tokens``: full-context forward per token per lane;
* **kv** — ``sample_tokens_cached``: single-lane KV cache, O(T) per step;
* **batched** — ``sample_tokens_batched``: the whole frontier as one wave.

The determinism contract makes the comparison honest: all three paths must
produce *bitwise-identical* token lists (asserted), so the tokens/s numbers
measure the same work.  The batched path must clear a ≥ 3× floor over serial.

The DPO half measures ``pairs_per_second`` / ``steps_per_second`` from
``DPOResult.throughput``.  All measurements land in ``runs/bench_lm.json``
for trend tracking across commits.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from conftest import print_table
from repro.dpo import DPOConfig, run_dpo
from repro.driving import training_tasks
from repro.driving.responses import response_templates
from repro.feedback import PreferencePair
from repro.lm import (
    LaneSpec,
    PretrainConfig,
    build_corpus,
    format_prompt,
    pretrain,
    sample_tokens,
    sample_tokens_batched,
    sample_tokens_cached,
)
from repro.utils.atomic import write_text_atomic
from repro.utils.rng import seeded_rng, spawn_lane_rngs

BENCH_SEED = 0
LANES_PER_PROMPT = 4
MAX_NEW_TOKENS = 64
TEMPERATURE = 0.9
TOP_K = 20
SPEEDUP_FLOOR = 3.0
RESULTS_PATH = Path(__file__).resolve().parent.parent / "runs" / "bench_lm.json"


@pytest.fixture(scope="module")
def pretrained():
    """A small pretrained model + tokenizer shared by both benchmark halves."""
    corpus = build_corpus(samples_per_task=12, seed=BENCH_SEED)
    result = pretrain(corpus, PretrainConfig(num_steps=60, batch_size=12, seed=BENCH_SEED))
    return result.model, result.tokenizer


def _lane_families(prompt_count: int):
    """The per-prompt RNG families every decode path must consume identically."""
    rng = seeded_rng(BENCH_SEED)
    return [spawn_lane_rngs(rng, LANES_PER_PROMPT) for _ in range(prompt_count)]


def _frontier(tokenizer):
    """(prompt_ids, stop_ids) for every lane of the benchmark frontier."""
    prompts = [format_prompt(task) for task in training_tasks()]
    encoded = [tuple(tokenizer.encode(prompt, add_bos=True)) for prompt in prompts]
    return encoded, (tokenizer.eos_id,)


def _template_pairs() -> list:
    """Template-derived preference pairs — scoring-free, so the DPO half
    measures training throughput, not verification."""
    pairs = []
    for task in training_tasks():
        prompt = format_prompt(task)
        compliant = response_templates(task.name, "compliant")
        flawed = response_templates(task.name, "flawed")
        for chosen, rejected in zip(compliant, flawed):
            pairs.append(
                PreferencePair(
                    prompt=prompt,
                    chosen=chosen,
                    rejected=rejected,
                    chosen_score=12.0,
                    rejected_score=5.0,
                    task=task.name,
                )
            )
    return pairs


def _persist(payload: dict) -> None:
    RESULTS_PATH.parent.mkdir(exist_ok=True)
    write_text_atomic(RESULTS_PATH, json.dumps(payload, indent=2) + "\n")


def test_bench_tokens_per_second(pretrained):
    model, tokenizer = pretrained
    encoded, stop_ids = _frontier(tokenizer)

    def decode_serial(step_fn):
        tokens, elapsed = [], 0.0
        for prompt_ids, family in zip(encoded, _lane_families(len(encoded))):
            for lane_rng in family:
                started = time.perf_counter()
                tokens.append(
                    step_fn(
                        model,
                        list(prompt_ids),
                        max_new_tokens=MAX_NEW_TOKENS,
                        temperature=TEMPERATURE,
                        top_k=TOP_K,
                        stop_ids=stop_ids,
                        seed=lane_rng,
                    )
                )
                elapsed += time.perf_counter() - started
        return tokens, elapsed

    serial_tokens, serial_s = decode_serial(sample_tokens)
    kv_tokens, kv_s = decode_serial(sample_tokens_cached)

    lanes = [
        LaneSpec(
            prompt_ids=prompt_ids,
            rng=lane_rng,
            max_new_tokens=MAX_NEW_TOKENS,
            temperature=TEMPERATURE,
            top_k=TOP_K,
            stop_ids=stop_ids,
        )
        for prompt_ids, family in zip(encoded, _lane_families(len(encoded)))
        for lane_rng in family
    ]
    started = time.perf_counter()
    batched_tokens = sample_tokens_batched(model, lanes)
    batched_s = time.perf_counter() - started

    # Identical work across all three paths — the tokens/s comparison is only
    # meaningful because the outputs are bitwise-identical.
    assert kv_tokens == serial_tokens
    assert batched_tokens == serial_tokens
    decoded = [tokenizer.decode(t[:-1] if t and t[-1] == tokenizer.eos_id else t) for t in serial_tokens]
    assert decoded == [
        tokenizer.decode(t[:-1] if t and t[-1] == tokenizer.eos_id else t) for t in batched_tokens
    ]

    total = sum(len(t) for t in serial_tokens)
    serial_tps = total / serial_s
    kv_tps = total / kv_s
    batched_tps = total / batched_s
    speedup = batched_tps / serial_tps

    print_table(
        "LM decoding throughput (identical sampled tokens)",
        ["path", "tokens", "seconds", "tokens/s", "vs serial"],
        [
            ["serial full-context", total, serial_s, serial_tps, 1.0],
            ["kv single-lane", total, kv_s, kv_tps, kv_tps / serial_tps],
            [f"batched x{len(lanes)}", total, batched_s, batched_tps, speedup],
        ],
    )

    assert speedup >= SPEEDUP_FLOOR, (
        f"batched decoding reached only {speedup:.2f}x over serial "
        f"(floor {SPEEDUP_FLOOR}x): {batched_tps:.0f} vs {serial_tps:.0f} tokens/s"
    )
    assert kv_tps > serial_tps, "the KV cache must beat full-context re-forwards"

    test_bench_tokens_per_second.results = {
        "lanes": len(lanes),
        "max_new_tokens": MAX_NEW_TOKENS,
        "total_tokens": total,
        "serial_tokens_per_s": serial_tps,
        "kv_tokens_per_s": kv_tps,
        "batched_tokens_per_s": batched_tps,
        "batched_speedup": speedup,
    }


def test_bench_dpo_throughput(pretrained):
    model, tokenizer = pretrained
    pairs = _template_pairs()

    result = run_dpo(
        model.clone(),
        tokenizer,
        pairs,
        DPOConfig(num_epochs=4, batch_size=8, learning_rate=3e-3, beta=1.0, lora_rank=4, seed=BENCH_SEED),
    )
    throughput = result.throughput
    assert throughput["pairs"] == len(pairs) * 4
    assert throughput["pairs_per_second"] > 0.0
    assert throughput["steps_per_second"] > 0.0

    print_table(
        "DPO training throughput",
        ["metric", "value"],
        [
            ["steps", throughput["steps"]],
            ["pairs", throughput["pairs"]],
            ["steps/s", throughput["steps_per_second"]],
            ["pairs/s", throughput["pairs_per_second"]],
        ],
    )

    sampling = getattr(test_bench_tokens_per_second, "results", {})
    _persist(
        {
            "seed": BENCH_SEED,
            "sampling": sampling,
            "dpo": {
                "steps": throughput["steps"],
                "pairs": throughput["pairs"],
                "seconds": throughput["seconds"],
                "steps_per_second": throughput["steps_per_second"],
                "pairs_per_second": throughput["pairs_per_second"],
            },
        }
    )
    assert RESULTS_PATH.exists()
