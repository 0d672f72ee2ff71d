"""The end-to-end DPO-AF pipeline (Figure 2).

The pipeline wires every substrate together:

1. build the synthetic corpus and *pre-train* the numpy language model
   (standing in for the already-trained Llama2-7B);
2. for each training task, *sample* ``m`` responses from the model — the
   whole m×N frontier decodes as one KV-cached batched wave
   (:func:`repro.lm.decode.sample_response_frontier`), token-identical to the
   serial :func:`repro.lm.sampling.sample_responses` oracle;
3. construct a controller from every response (GLM2FSA) and compute
   *automated feedback* by formal verification against the task's world
   model; all scoring routes through one batched, cached
   :class:`~repro.serving.scheduler.FeedbackService` built with the default
   :class:`~repro.serving.config.ServingConfig` (an in-memory cache that
   lives as long as the pipeline).
   Each task's responses are scored as one batch
   (``FeedbackService.score_responses``) on the calling thread, in task
   order, so the process training later forks from has one thread;
4. turn the feedback ranking into preference pairs, task by task, then run
   *DPO with LoRA*;
5. *evaluate* checkpoints by re-sampling responses and counting satisfied
   specifications on the training and validation task splits (Figure 9) and
   in the simulator (Figure 11).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.obs import tracer as obs
from repro.obs.metrics import MetricsRegistry, process_usage_provider
from repro.core.config import PipelineConfig, SamplingConfig
from repro.dpo.trainer import DPOResult, run_dpo
from repro.driving.specifications import all_specifications
from repro.driving.tasks import DrivingTask, training_tasks, validation_tasks
from repro.errors import TrainingError
from repro.feedback.ranker import rank_to_pairs
from repro.lm.corpus import build_corpus, format_prompt
from repro.lm.decode import sample_response_frontier
from repro.lm.pretrain import PretrainResult, pretrain
from repro.lm.tokenizer import Tokenizer
from repro.lm.transformer import TransformerLM
from repro.serving.scheduler import FeedbackService
from repro.utils.rng import seeded_rng


@dataclass
class TaskEvaluation:
    """Specification satisfaction of sampled responses for one task."""

    task: str
    split: str
    num_specifications: int
    satisfied_counts: list = field(default_factory=list)

    @property
    def mean_satisfied(self) -> float:
        return float(np.mean(self.satisfied_counts)) if self.satisfied_counts else 0.0

    @property
    def satisfaction_ratio(self) -> float:
        if self.num_specifications == 0:
            return 0.0
        return self.mean_satisfied / self.num_specifications


@dataclass
class ModelEvaluation:
    """Aggregate evaluation of one model checkpoint over a task set."""

    per_task: list = field(default_factory=list)

    def mean_satisfied(self, split: str | None = None) -> float:
        selected = [t for t in self.per_task if split is None or t.split == split]
        if not selected:
            return 0.0
        return float(np.mean([t.mean_satisfied for t in selected]))

    def satisfaction_ratio(self, split: str | None = None) -> float:
        selected = [t for t in self.per_task if split is None or t.split == split]
        if not selected:
            return 0.0
        return float(np.mean([t.satisfaction_ratio for t in selected]))


@dataclass
class PipelineResult:
    """Everything the pipeline produces."""

    pretrain_result: PretrainResult
    dpo_result: DPOResult
    preference_pairs: list
    before_evaluation: ModelEvaluation
    after_evaluation: ModelEvaluation
    checkpoint_evaluations: dict = field(default_factory=dict)   # epoch -> ModelEvaluation
    serving_metrics: dict = field(default_factory=dict)          # FeedbackService telemetry

    @property
    def improvement(self) -> float:
        """Headline number: satisfaction ratio after minus before fine-tuning."""
        return self.after_evaluation.satisfaction_ratio() - self.before_evaluation.satisfaction_ratio()


class DPOAFPipeline:
    """Direct preference optimization via automated feedback (DPO-AF)."""

    def __init__(self, config: PipelineConfig | None = None, *, specifications=None, tasks=None, validation=None):
        self.config = config or PipelineConfig()
        self.specifications = dict(specifications) if specifications is not None else all_specifications()
        self.tasks = tuple(tasks) if tasks is not None else training_tasks()
        self.validation = tuple(validation) if validation is not None else validation_tasks()
        self._tracer: obs.Tracer | None = None
        if self.config.trace_path is not None:
            self._tracer = obs.install_tracer(obs.Tracer())
        self.serving = FeedbackService(self.specifications, seed=self.config.seed)
        # One registry federates every subsystem's telemetry; run() takes a
        # single snapshot at the end and embeds it in the exported trace.
        # "process" counts from here: this process's minor faults and peak
        # RSS, and those of the training workers reaped since.
        self.metrics_registry = MetricsRegistry()
        self.metrics_registry.register_provider("serving", self.serving.metrics.snapshot)
        self.metrics_registry.register_provider("process", process_usage_provider())

    # ------------------------------------------------------------------ #
    # Stage 1: the pre-trained model
    # ------------------------------------------------------------------ #
    def pretrain_model(self) -> PretrainResult:
        """Build the corpus and pre-train the base language model."""
        corpus = build_corpus(
            samples_per_task=self.config.corpus_samples_per_task,
            seed=self.config.seed,
            tasks=self.tasks,
        )
        return pretrain(corpus, self.config.pretrain)

    # ------------------------------------------------------------------ #
    # Stage 2/3: sampling and automated feedback
    # ------------------------------------------------------------------ #
    def task_model(self, task: DrivingTask):
        """The (cached) world model a task is verified against."""
        return self.serving.scenario_model(task.scenario)

    def score_response(self, task: DrivingTask, response: str) -> int:
        """Number of specifications the response's controller satisfies."""
        return self.serving.score_response(task, response)

    def _sample_and_score(
        self,
        model: TransformerLM,
        tokenizer: Tokenizer,
        tasks,
        num_samples: int,
        sampling: SamplingConfig,
        rng,
    ) -> list:
        """Sample ``num_samples`` responses per task and score each task's batch.

        The whole frontier decodes as one KV-cached batched wave, then each
        task's responses are scored as one batch on the calling thread, in
        task order.  Returns ``(task, prompt, responses, scores)`` tuples in
        task order.
        """
        prompts = [format_prompt(task) for task in tasks]
        frontier = sample_response_frontier(
            model,
            tokenizer,
            prompts,
            [num_samples] * len(prompts),
            temperature=sampling.temperature,
            top_k=sampling.top_k,
            max_new_tokens=sampling.max_new_tokens,
            rng=rng,
        )
        return [
            (task, prompt, responses, self.serving.score_responses(task, responses))
            for task, prompt, responses in zip(tasks, prompts, frontier)
        ]

    def collect_preference_pairs(
        self,
        model: TransformerLM,
        tokenizer: Tokenizer,
        *,
        sampling: SamplingConfig | None = None,
        seed: int | None = None,
    ) -> list:
        """Sample responses per training task, score them, and build pairs."""
        sampling = sampling if sampling is not None else self.config.sampling
        rng = seeded_rng(self.config.seed if seed is None else seed)
        scored = self._sample_and_score(
            model, tokenizer, self.tasks, sampling.responses_per_prompt, sampling, rng
        )
        pairs = []
        for task, prompt, responses, scores in scored:
            pairs.extend(rank_to_pairs(prompt, responses, scores, task=task.name))
        return pairs

    def augment_with_templates(self, pairs: list, *, per_task: int = 6) -> list:
        """Add template-based preference pairs when sampling yields too few.

        The paper collects ~3000 pairs by sampling Llama2 at scale; at our
        scale a freshly pre-trained small model sometimes produces nearly
        identical responses whose feedback ties.  Pairs built from the
        response library (scored by the same verifier) keep the DPO dataset
        informative without changing the feedback mechanism.  At most
        ``per_task`` pairs are added per task.
        """
        from repro.driving.responses import VAGUE_RESPONSES, response_templates

        augmented = list(pairs)
        for task in self.tasks:
            compliant = response_templates(task.name, "compliant")
            flawed = response_templates(task.name, "flawed")
            candidates = list(compliant) + list(flawed[:2]) + [VAGUE_RESPONSES[0]]
            scores = self.serving.score_responses(task, candidates)
            augmented.extend(rank_to_pairs(format_prompt(task), candidates, scores, task=task.name)[:per_task])
        return augmented

    # ------------------------------------------------------------------ #
    # Stage 4: DPO fine-tuning
    # ------------------------------------------------------------------ #
    def finetune(self, model: TransformerLM, tokenizer: Tokenizer, pairs: list) -> DPOResult:
        """Run DPO with LoRA on the collected preference pairs."""
        if not pairs:
            raise TrainingError("no preference pairs were collected; cannot fine-tune")
        return run_dpo(model, tokenizer, pairs, self.config.dpo)

    # ------------------------------------------------------------------ #
    # Stage 5: evaluation
    # ------------------------------------------------------------------ #
    def evaluate_model(
        self,
        model: TransformerLM,
        tokenizer: Tokenizer,
        *,
        tasks=None,
        num_samples: int | None = None,
        seed: int = 1234,
    ) -> ModelEvaluation:
        """Sample responses on a task set and verify them (Figure 9's metric).

        ``num_samples`` falls back to the sampling config only when omitted —
        an explicit 0 means "sample nothing" (``is None`` check, not
        truthiness), which evaluates every task to an empty count list.
        """
        tasks = list(tasks) if tasks is not None else list(self.tasks) + list(self.validation)
        if num_samples is None:
            num_samples = self.config.sampling.responses_per_prompt
        scored = self._sample_and_score(
            model, tokenizer, tasks, num_samples, self.config.sampling, seeded_rng(seed)
        )
        return ModelEvaluation(
            per_task=[
                TaskEvaluation(
                    task=task.name,
                    split=task.split,
                    num_specifications=len(self.specifications),
                    satisfied_counts=scores,
                )
                for task, _prompt, _responses, scores in scored
            ]
        )

    def evaluate_checkpoints(self, dpo_result: DPOResult, tokenizer: Tokenizer, *, num_samples: int = 2, seed: int = 99) -> dict:
        """Figure 9: specification satisfaction at every stored DPO checkpoint."""
        evaluations = {}
        for epoch in dpo_result.checkpoint_epochs():
            model = dpo_result.model_at_epoch(epoch)
            evaluations[epoch] = self.evaluate_model(model, tokenizer, num_samples=num_samples, seed=seed)
        return evaluations

    # ------------------------------------------------------------------ #
    # Orchestration
    # ------------------------------------------------------------------ #
    def run(self, *, evaluate_checkpoints: bool = False, augment_pairs: bool = True) -> PipelineResult:
        """Run the full DPO-AF loop and return every artifact.

        The stages run in order, each under its own ``pipeline.*`` span:
        pretrain, evaluate the base model, collect preference pairs, augment
        them with templates (unless ``augment_pairs=False``), train with DPO,
        and evaluate the fine-tuned policy.
        """
        with obs.span("pipeline.pretrain", category="pipeline"):
            pretrain_result = self.pretrain_model()
        model, tokenizer = pretrain_result.model, pretrain_result.tokenizer

        with obs.span("pipeline.evaluate", category="pipeline", phase="before"):
            before = self.evaluate_model(model, tokenizer)
        with obs.span("pipeline.collect_pairs", category="pipeline"):
            pairs = self.collect_preference_pairs(model, tokenizer)
        if augment_pairs:
            with obs.span("pipeline.augment_pairs", category="pipeline"):
                pairs = self.augment_with_templates(pairs)
        with obs.span("pipeline.train", category="pipeline"):
            dpo_result = self.finetune(model, tokenizer, pairs)
        with obs.span("pipeline.evaluate", category="pipeline", phase="after"):
            after = self.evaluate_model(dpo_result.policy, tokenizer)
        checkpoint_evaluations = (
            self.evaluate_checkpoints(dpo_result, tokenizer) if evaluate_checkpoints else {}
        )
        serving_metrics = self.serving.metrics.snapshot()
        self._export_trace()
        return PipelineResult(
            pretrain_result=pretrain_result,
            dpo_result=dpo_result,
            preference_pairs=pairs,
            before_evaluation=before,
            after_evaluation=after,
            checkpoint_evaluations=checkpoint_evaluations,
            serving_metrics=serving_metrics,
        )

    def _export_trace(self) -> None:
        """Export the run's spans (with the training workers' adopted ones) to ``trace_path``."""
        if self._tracer is None:
            return
        from repro.obs.export import write_chrome_trace

        write_chrome_trace(
            self.config.trace_path, self._tracer, metrics=self.metrics_registry.snapshot()
        )

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Release the feedback service and the tracer.

        ``run()`` leaves the pipeline reusable; call this — or use the
        pipeline as a context manager — when done.  The pipeline scores on
        the calling thread, and its service starts no thread.
        """
        try:
            self.serving.close()
        finally:
            if self._tracer is not None:
                # Only uninstall the tracer this pipeline installed: a later
                # pipeline (or test) may have replaced it already.
                if obs.current_tracer() is self._tracer:
                    obs.uninstall_tracer()
                self._tracer = None

    def __enter__(self) -> "DPOAFPipeline":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
