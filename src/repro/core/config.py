"""Configuration objects for the end-to-end DPO-AF pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dpo.trainer import DPOConfig
from repro.lm.pretrain import PretrainConfig
from repro.serving.config import ServingConfig


@dataclass(frozen=True)
class SamplingConfig:
    """How responses are sampled from the language model."""

    responses_per_prompt: int = 4      # the paper's m (responses sampled per task)
    temperature: float = 0.9
    top_k: int | None = 20
    max_new_tokens: int = 72


@dataclass(frozen=True)
class FeedbackConfig:
    """How automated feedback is computed: model checking, or simulator traces
    (:mod:`repro.serving.config` fixes their count and threshold)."""

    use_empirical: bool = False


@dataclass(frozen=True)
class PipelineConfig:
    """Everything needed to run the full DPO-AF loop.

    ``trace_path`` enables run tracing: spans from every stage (sampling,
    verification — worker processes included — pair construction, training)
    are exported to this path as a Chrome/Perfetto trace-event file at the
    end of :meth:`~repro.core.pipeline.DPOAFPipeline.run`, summarisable with
    ``repro-trace report``.  ``None`` (the default) keeps tracing off, with
    results bitwise-identical to a traced run.
    """

    pretrain: PretrainConfig = field(default_factory=PretrainConfig)
    dpo: DPOConfig = field(default_factory=DPOConfig)
    sampling: SamplingConfig = field(default_factory=SamplingConfig)
    serving: ServingConfig = field(default_factory=ServingConfig)
    corpus_samples_per_task: int = 32
    seed: int = 0
    trace_path: str | None = None


def quick_pipeline_config(seed: int = 0, *, shared_cache_dir: str | None = None) -> PipelineConfig:
    """A scaled-down configuration for tests and smoke runs (seconds, not minutes).

    ``shared_cache_dir`` points the feedback service at a cross-run cache
    directory (see :class:`~repro.serving.config.ServingConfig`), so repeated
    smoke runs — and the benchmarks and CLI sharing the directory — skip
    verification already done by an earlier run with the same fingerprint.
    """
    return PipelineConfig(
        pretrain=PretrainConfig(num_steps=60, batch_size=8, dim=32, num_heads=2, num_layers=1, hidden_dim=64, seed=seed),
        dpo=DPOConfig(num_epochs=2, batch_size=4, checkpoint_every=1, lora_rank=2, seed=seed),
        sampling=SamplingConfig(responses_per_prompt=2, max_new_tokens=48),
        serving=ServingConfig(shared_cache_dir=shared_cache_dir),
        corpus_samples_per_task=8,
        seed=seed,
    )


def paper_scale_config(seed: int = 0, *, shared_cache_dir: str | None = None) -> PipelineConfig:
    """The configuration the benchmarks use to regenerate the paper's figures.

    Scaled to minutes of CPU time rather than GPU-days: the corpus, epoch count
    and response counts are smaller than the paper's (~3000 preference points,
    200 epochs on Llama2-7B) but large enough for every qualitative trend —
    loss → 0, accuracy → 1, rising specification satisfaction — to reproduce.
    """
    return PipelineConfig(
        pretrain=PretrainConfig(num_steps=300, batch_size=16, seed=seed),
        dpo=DPOConfig(
            num_epochs=30,
            batch_size=12,
            learning_rate=3e-3,
            beta=1.0,
            lora_rank=8,
            checkpoint_every=5,
            seed=seed,
        ),
        sampling=SamplingConfig(responses_per_prompt=4),
        serving=ServingConfig(shared_cache_dir=shared_cache_dir),
        corpus_samples_per_task=28,
        seed=seed,
    )
