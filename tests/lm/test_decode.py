"""Tests for the batched KV-cache decode path and its determinism contract.

The load-bearing claims (see ``docs/lm.md``):

* ``forward_step`` over a KV cache produces **bitwise** the same logits as a
  full forward over the whole prefix — property-tested over random
  configurations drawn from the head_dim-16 kernel domain (every shipped
  config: ``dim = 16 × num_heads``);
* batched sampling is **token-identical** to the serial path for every lane,
  however many lanes ride along and whenever any of them retires;
* the window fallback past ``max_seq_len`` re-encodes trailing windows exactly
  as the serial path does.
"""

import numpy as np
import pytest

from repro.errors import TrainingError
from repro.lm import (
    DecodeState,
    LaneSpec,
    ModelConfig,
    Tokenizer,
    TransformerLM,
    sample_response_frontier,
    sample_responses,
    sample_tokens,
    sample_tokens_batched,
    sample_tokens_cached,
)
from repro.utils.rng import spawn_lane_rngs


def random_config(rng: np.random.Generator) -> ModelConfig:
    """A random model inside the bitwise-stable kernel domain (head_dim 16)."""
    heads = int(rng.integers(1, 4))
    return ModelConfig(
        vocab_size=int(rng.integers(20, 90)),
        max_seq_len=int(rng.integers(12, 28)),
        dim=16 * heads,
        num_heads=heads,
        num_layers=int(rng.integers(1, 3)),
        hidden_dim=int(rng.integers(16, 64)),
    )


def random_lane_params(rng: np.random.Generator, vocab: int) -> dict:
    """Per-lane sampling knobs, sometimes greedy / top-k / early-stopping."""
    return {
        "max_new_tokens": int(rng.integers(1, 12)),
        "temperature": float(rng.choice([0.0, 0.7, 1.0, 1.3])),
        "top_k": int(rng.integers(2, vocab)) if rng.random() < 0.5 else None,
        "stop_ids": (int(rng.integers(0, vocab)),) if rng.random() < 0.5 else (),
    }


class TestForwardStep:
    def test_incremental_logits_match_full_forward_bitwise(self):
        """KV-cached logits equal full-prefix recompute to the last bit,
        across random configs, batch sizes and step chunkings."""
        rng = np.random.default_rng(7)
        for trial in range(6):
            config = random_config(rng)
            model = TransformerLM(config, seed=int(rng.integers(0, 1000)))
            batch = int(rng.integers(1, 5))
            total = int(rng.integers(4, config.max_seq_len + 1))
            tokens = rng.integers(0, config.vocab_size, size=(batch, total))
            state = DecodeState.for_model(model, batch)
            position = 0
            while position < total:
                step = min(int(rng.integers(1, 4)), total - position)
                step_logits = model.forward_step(tokens[:, position : position + step], state)
                position += step
                full = model.forward(tokens[:, :position])[0][:, -1, :]
                assert np.array_equal(step_logits, full), (
                    f"trial {trial}: logits diverged at position {position}"
                )
            assert state.length == total

    def test_forward_step_rejects_overflow_and_batch_mismatch(self):
        config = ModelConfig(vocab_size=11, max_seq_len=8, dim=16, num_heads=1, num_layers=1, hidden_dim=16)
        model = TransformerLM(config, seed=0)
        state = DecodeState.for_model(model, 2)
        model.forward_step(np.zeros((2, 6), dtype=np.int64), state)
        with pytest.raises(TrainingError):
            model.forward_step(np.zeros((2, 3), dtype=np.int64), state)  # 6 + 3 > 8
        with pytest.raises(TrainingError):
            model.forward_step(np.zeros((3, 1), dtype=np.int64), state)  # wrong batch
        with pytest.raises(TrainingError):
            model.forward_step(np.zeros((2, 0), dtype=np.int64), state)  # no new tokens

    def test_select_keeps_surviving_lane_bits(self):
        config = ModelConfig(vocab_size=13, max_seq_len=10, dim=16, num_heads=1, num_layers=2, hidden_dim=16)
        model = TransformerLM(config, seed=1)
        tokens = np.random.default_rng(0).integers(0, 13, size=(4, 5))
        state = DecodeState.for_model(model, 4)
        model.forward_step(tokens, state)
        snapshot = [(kv.k.copy(), kv.v.copy()) for kv in state.layers]
        state.select([0, 2])
        assert state.batch == 2
        for kv, (k, v) in zip(state.layers, snapshot):
            assert np.array_equal(kv.k, k[[0, 2]])
            assert np.array_equal(kv.v, v[[0, 2]])


class TestBatchedTokenIdentity:
    def test_batched_matches_serial_across_lane_counts(self):
        """The core contract: every lane's tokens equal the serial path's,
        for 1, 2, 5 and 12 lanes of mixed prompts/temperatures/budgets."""
        rng = np.random.default_rng(3)
        config = random_config(rng)
        model = TransformerLM(config, seed=5)
        for lane_count in (1, 2, 5, 12):
            prompts = [
                list(rng.integers(0, config.vocab_size, size=int(rng.integers(2, max(3, config.max_seq_len // 2)))))
                for _ in range(lane_count)
            ]
            params = [random_lane_params(rng, config.vocab_size) for _ in range(lane_count)]
            serial = [
                sample_tokens(model, prompt, seed=lane_rng, **kwargs)
                for prompt, kwargs, lane_rng in zip(prompts, params, spawn_lane_rngs(123, lane_count))
            ]
            lanes = [
                LaneSpec(prompt_ids=tuple(prompt), rng=lane_rng, **kwargs)
                for prompt, kwargs, lane_rng in zip(prompts, params, spawn_lane_rngs(123, lane_count))
            ]
            assert sample_tokens_batched(model, lanes) == serial

    def test_retired_lanes_do_not_perturb_survivors(self):
        """A lane's output is independent of its companions: short-budget
        lanes retire mid-wave and the long lane still matches decoding alone."""
        rng = np.random.default_rng(11)
        config = random_config(rng)
        model = TransformerLM(config, seed=2)
        prompt = tuple(int(t) for t in rng.integers(0, config.vocab_size, size=4))

        def lane(budget, lane_rng):
            return LaneSpec(prompt_ids=prompt, rng=lane_rng, max_new_tokens=budget, temperature=1.0)

        alone = sample_tokens_batched(model, [lane(10, spawn_lane_rngs(77, 1)[0])])[0]
        rngs = spawn_lane_rngs(77, 1) + spawn_lane_rngs(99, 3)
        crowd = sample_tokens_batched(
            model,
            [lane(10, rngs[0]), lane(1, rngs[1]), lane(3, rngs[2]), lane(6, rngs[3])],
        )
        assert crowd[0] == alone
        assert [len(tokens) for tokens in crowd[1:]] == [1, 3, 6]

    def test_zero_budget_lane_consumes_nothing(self):
        """max_new_tokens=0 lanes return [] without drawing RNG or stalling
        the group — exactly like the serial loop that never runs."""
        config = ModelConfig(vocab_size=17, max_seq_len=12, dim=16, num_heads=1, num_layers=1, hidden_dim=16)
        model = TransformerLM(config, seed=3)
        prompt = (1, 2, 3)
        live_rng, zero_rng = spawn_lane_rngs(5, 2)
        results = sample_tokens_batched(
            model,
            [
                LaneSpec(prompt_ids=prompt, rng=live_rng, max_new_tokens=4),
                LaneSpec(prompt_ids=prompt, rng=zero_rng, max_new_tokens=0),
            ],
        )
        assert results[1] == []
        assert results[0] == sample_tokens(model, list(prompt), max_new_tokens=4, seed=spawn_lane_rngs(5, 2)[0])

    def test_sample_tokens_cached_is_a_drop_in(self):
        rng = np.random.default_rng(19)
        config = random_config(rng)
        model = TransformerLM(config, seed=4)
        prompt = list(rng.integers(0, config.vocab_size, size=5))
        kwargs = {"max_new_tokens": 9, "temperature": 0.9, "top_k": 5, "stop_ids": (2,)}
        assert sample_tokens_cached(model, prompt, seed=42, **kwargs) == sample_tokens(
            model, prompt, seed=42, **kwargs
        )


class TestWindowFallback:
    def test_decode_past_max_seq_len_matches_serial(self):
        """Once the context hits max_seq_len the KV cache is invalid (absolute
        positions); the fallback re-encodes trailing windows exactly like the
        serial path, so tokens stay identical across the boundary."""
        config = ModelConfig(vocab_size=23, max_seq_len=10, dim=16, num_heads=1, num_layers=2, hidden_dim=24)
        model = TransformerLM(config, seed=6)
        rng = np.random.default_rng(1)
        for prompt_len in (6, 10, 14):  # inside, at, and beyond the window
            prompt = list(rng.integers(0, config.vocab_size, size=prompt_len))
            serial = sample_tokens(model, prompt, max_new_tokens=12, seed=spawn_lane_rngs(8, 1)[0])
            batched = sample_tokens_batched(
                model,
                [LaneSpec(prompt_ids=tuple(prompt), rng=spawn_lane_rngs(8, 1)[0], max_new_tokens=12)],
            )[0]
            assert batched == serial, f"prompt_len={prompt_len}"


class TestDecodeSpans:
    def test_wave_and_step_spans_are_emitted(self):
        """One lm.batch_wave per lane group; one lm.decode_step per batched
        model call (prefill included), all visible in the stage breakdown."""
        from repro.obs import tracer as obs
        from repro.obs.report import stage_breakdown
        from repro.obs.tracer import Tracer

        config = ModelConfig(vocab_size=17, max_seq_len=12, dim=16, num_heads=1, num_layers=1, hidden_dim=16)
        model = TransformerLM(config, seed=3)
        tracer = obs.install_tracer(Tracer())
        try:
            sample_tokens_batched(
                model,
                [LaneSpec(prompt_ids=(1, 2, 3), rng=spawn_lane_rngs(0, 1)[0], max_new_tokens=4)],
            )
        finally:
            obs.uninstall_tracer()
        names = [span.name for span in tracer.spans()]
        assert names.count("lm.batch_wave") == 1
        assert names.count("lm.decode_step") == 4  # prefill + 3 steps (4th draw retires the lane)
        wave = next(span for span in tracer.spans() if span.name == "lm.batch_wave")
        assert wave.attributes["lanes"] == 1
        assert wave.attributes["prompt_tokens"] == 3
        prefill = next(span for span in tracer.spans() if span.name == "lm.decode_step")
        assert prefill.attributes["prefill"] is True
        breakdown = stage_breakdown(tracer.spans())
        assert breakdown["lm.batch_wave"]["count"] == 1
        assert breakdown["lm.decode_step"]["count"] == 4


class TestResponseFrontier:
    @pytest.fixture(scope="class")
    def text_model(self):
        tokenizer = Tokenizer.fit(
            [
                'Steps for "turn right" :',
                "1. observe the light.\n2. if green, turn right.",
                "1. stop at the sign.\n2. go when clear.",
            ]
        )
        config = ModelConfig(vocab_size=tokenizer.vocab_size, max_seq_len=32, dim=16, num_heads=1, num_layers=1, hidden_dim=24)
        return TransformerLM(config, seed=9), tokenizer

    def test_frontier_matches_per_prompt_serial_loop(self, text_model):
        """The pipeline contract: one shared rng walked prompt by prompt gives
        the same text as the whole frontier decoded in one wave."""
        model, tokenizer = text_model
        prompts = ['Steps for "turn right" :', "1. stop at the sign.", 'Steps for "turn right" :']
        counts = [2, 3, 0]
        serial_rng = np.random.default_rng(31)
        serial = [
            sample_responses(model, tokenizer, prompt, count, max_new_tokens=12, seed=serial_rng)
            for prompt, count in zip(prompts, counts)
        ]
        batched = sample_response_frontier(
            model, tokenizer, prompts, counts, max_new_tokens=12, rng=np.random.default_rng(31)
        )
        assert batched == serial
        assert batched[2] == []

    def test_frontier_rejects_mismatched_lengths(self, text_model):
        model, tokenizer = text_model
        with pytest.raises(ValueError):
            sample_response_frontier(model, tokenizer, ["a", "b"], [1])
