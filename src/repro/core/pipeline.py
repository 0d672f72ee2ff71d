"""The end-to-end DPO-AF pipeline (Figure 2).

The pipeline wires every substrate together:

1. build the synthetic corpus and *pre-train* the numpy language model
   (standing in for the already-trained Llama2-7B);
2. for each training task, *sample* ``m`` responses from the model — the
   whole m×N frontier decodes as one KV-cached batched wave
   (:func:`repro.lm.decode.sample_response_frontier`), token-identical to the
   serial :func:`repro.lm.sampling.sample_responses` oracle;
3. construct a controller from every response (GLM2FSA) and compute
   *automated feedback* — formal verification against the task's world model,
   or empirical evaluation in the simulator; all scoring routes through the
   batched, cached :class:`~repro.serving.scheduler.FeedbackService`
   (``serving.backend`` selects serial/thread/process execution of cache
   misses, and ``serving.shared_cache_dir`` warm-starts runs from a cache
   directory shared with the benchmarks and the ``repro-serve`` CLI).
   Each task's responses are submitted asynchronously
   (``FeedbackService.submit_batch``) and verify on the pipeline's
   dispatcher in submission order, keeping every score bitwise-identical to
   a serial loop.  If the serving config bounds in-flight work
   (``max_inflight_batches`` / ``max_inflight_jobs``), submission blocks
   under back-pressure instead of queueing unbounded batches;
4. turn the feedback ranking into preference pairs — each task's pairs are
   built the moment its scores complete
   (:func:`repro.serving.scheduler.as_completed`), overlapping pair
   construction with the verification of later batches, while the final
   pair list is assembled in task order (``rank_to_pairs`` itself is
   order-independent) — then run *DPO with LoRA*;
5. *evaluate* checkpoints by re-sampling responses and counting satisfied
   specifications on the training and validation task splits (Figure 9) and
   in the simulator (Figure 11).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from repro.obs import tracer as obs
from repro.obs.metrics import MetricsRegistry
from repro.core.config import FeedbackConfig, PipelineConfig, SamplingConfig
from repro.dpo.trainer import DPOResult, run_dpo
from repro.driving.specifications import all_specifications
from repro.driving.tasks import DrivingTask, training_tasks, validation_tasks
from repro.errors import TrainingError
from repro.feedback.formal import FormalVerifier
from repro.feedback.ranker import rank_to_pairs
from repro.lm.corpus import build_corpus, format_prompt
from repro.lm.decode import sample_response_frontier
from repro.lm.pretrain import PretrainResult, pretrain
from repro.lm.tokenizer import Tokenizer
from repro.lm.transformer import TransformerLM
from repro.serving.scheduler import Dispatcher, FeedbackService, as_completed
from repro.utils.rng import seeded_rng


def _drain_in_order(pending, build) -> list:
    """One ``build(metadata, scores)`` result per ``pending`` entry, in order.

    ``pending`` holds tuples whose last element is a
    :class:`~repro.serving.scheduler.PendingBatch`; ``metadata`` is the rest
    of the tuple.  ``build`` runs in verification-*completion* order, so
    downstream work (pair construction, evaluation assembly) overlaps the
    batches still in flight, while the returned list follows submission
    order, keeping results bitwise-identical to a blocking drain.
    """
    by_handle = {entry[-1]: (index, entry[:-1]) for index, entry in enumerate(pending)}
    results: list = [None] * len(pending)
    for handle in as_completed(by_handle):
        index, metadata = by_handle[handle]
        results[index] = build(metadata, handle.result())
    return results


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
        self.verifier = FormalVerifier(
            self.specifications,
            wait_action=self.config.feedback.wait_action,
            restart_on_termination=self.config.feedback.restart_on_termination,
        )
        # Tracing must be live before the serving layer is built: the
        # FeedbackService captures the tracer's shard directory into its
        # worker payload at construction, which is how worker processes know
        # where to write their span shards.
        self._tracer: obs.Tracer | None = None
        if self.config.trace_path is not None:
            self._tracer = obs.Tracer.for_trace_file(self.config.trace_path)
            obs.install_tracer(self._tracer)
        # The pipeline owns one Dispatcher and shares it with its service;
        # callers that build extra FeedbackServices (e.g. an empirical channel
        # next to the formal one) can pass the same `pipeline.dispatcher` and
        # serve several task streams over this single submission thread.
        self.dispatcher = Dispatcher(name="pipeline-dispatch")
        self.serving = FeedbackService(
            self.specifications,
            feedback=self.config.feedback,
            config=self.config.serving,
            seed=self.config.seed,
            verifier=self.verifier,
            dispatcher=self.dispatcher,
        )
        # One registry federates every subsystem's telemetry; run() takes a
        # single snapshot at the end and embeds it in the exported trace.
        self.metrics_registry = MetricsRegistry()
        self.metrics_registry.register_provider("serving", self.serving.metrics.snapshot)
        self.metrics_registry.register_provider(
            "dispatcher", lambda: {"queued_batches": self.dispatcher.queued_batches}
        )

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

    def _sample_and_submit(
        self,
        model: TransformerLM,
        tokenizer: Tokenizer,
        tasks,
        num_samples: int,
        sampling: SamplingConfig,
        rng,
    ) -> list:
        """Sample ``num_samples`` responses per task and submit each task's batch.

        The whole frontier decodes as one KV-cached batched wave, then the
        batches are submitted for verification in task order.  Returns
        ``(task, prompt, responses, PendingBatch)`` tuples in task order.
        Submission is asynchronous — verification runs on the pipeline's
        dispatcher — and a configured in-flight bound blocks here
        (back-pressure) rather than queueing unbounded batches.
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
            (task, prompt, responses, self.serving.submit_responses(task, responses))
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
        pending = self._sample_and_submit(
            model, tokenizer, self.tasks, sampling.responses_per_prompt, sampling, rng
        )

        # Build each task's pairs the moment its scores arrive instead of
        # draining batches in task order — pair construction overlaps the
        # verification still in flight.  rank_to_pairs is order-independent
        # and the final list is assembled in task order, so the result is
        # bitwise-identical to the blocking score_batch path.
        def build(metadata, scores):
            task, prompt, responses = metadata
            return rank_to_pairs(prompt, responses, scores, task=task.name)

        pairs = []
        for task_pairs in _drain_in_order(pending, build):
            pairs.extend(task_pairs)
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

        pending = []
        for task in self.tasks:
            compliant = response_templates(task.name, "compliant")
            flawed = response_templates(task.name, "flawed")
            candidates = list(compliant) + list(flawed[:2]) + [VAGUE_RESPONSES[0]]
            pending.append(
                (task, format_prompt(task), candidates, self.serving.submit_responses(task, candidates))
            )

        # Ranked as each task's scores land, appended in task order.
        def build(metadata, scores):
            task, prompt, candidates = metadata
            return rank_to_pairs(prompt, candidates, scores, task=task.name)[:per_task]

        augmented = list(pairs)
        for task_pairs in _drain_in_order(pending, build):
            augmented.extend(task_pairs)
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
        pending = self._sample_and_submit(
            model, tokenizer, tasks, num_samples, self.config.sampling, seeded_rng(seed)
        )

        # Consume in completion order, report in task order — same discipline
        # as pair construction.
        def build(metadata, counts):
            task = metadata[0]
            return TaskEvaluation(
                task=task.name,
                split=task.split,
                num_specifications=len(self.specifications),
                satisfied_counts=counts,
            )

        return ModelEvaluation(per_task=_drain_in_order(pending, build))

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
        self.serving.flush()
        serving_metrics = self.serving.metrics.snapshot()
        serving_metrics["cache"] = dataclasses.asdict(self.serving.cache.stats())
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
        """Export the run's spans (parent + worker shards) to ``trace_path``."""
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
        """Release the serving layer's dispatcher thread and worker processes.

        ``run()`` leaves the pipeline reusable (its flush is part of the run);
        call this — or use the pipeline as a context manager — when done, so a
        process-backend pool does not outlive the experiment.  The service
        only *borrows* ``self.dispatcher`` (it drains and unregisters), so the
        pipeline, as the owner, shuts the dispatch thread down afterwards.
        """
        try:
            self.serving.close()
        finally:
            # Even a failed flush must not leak the dispatch thread.
            self.dispatcher.close()
            if self._tracer is not None:
                # Only uninstall the tracer this pipeline installed: a later
                # pipeline (or test) may have replaced it already.
                if obs.current_tracer() is self._tracer:
                    obs.uninstall_tracer()
                self._tracer.close()
                self._tracer = None

    def __enter__(self) -> "DPOAFPipeline":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
