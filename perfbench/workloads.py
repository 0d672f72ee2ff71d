"""The benchmark's two workloads: set-up, measured phase and correctness gates.

Each workload class takes the seed, ``--seconds`` and a scratch directory,
and exposes

* ``setup(tracing=False)`` — construction plus forced lazy set-up, which
  the runner times (``setup_s``).  ``tracing`` turns the program's own spans
  on;
* ``measure(state)`` — the measured phase, returning an :class:`Outcome`;
* ``gates(state, outcome)`` — ``{gate name: passed}`` against an oracle;
* ``repeats(outcome)`` — redoes a seeded slice of the measured work on fresh
  state and reports whether its scores equal the measured ones, so a
  nondeterministic score fails the run that produced it.

The work a run does is fixed by the seed and ``--seconds``:
``feedback_serve`` sizes its stream from ``--seconds`` at a reference rate
measured on a 2-core host, so every commit does the same work and a traced
run repeats the untraced run's work exactly.  A time box would not: the
service's cache warms as the stream goes on, so a faster run would score
more cache hits and look faster still.

Only public entry points of ``repro`` are used, and no configuration switch
is selected beyond the trace path and the serving pool width.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.config import paper_scale_config
from repro.core.pipeline import DPOAFPipeline
from repro.driving.responses import RESPONSE_LIBRARY, VAGUE_RESPONSES, response_templates
from repro.driving.scenarios.universal import scenario_model
from repro.driving.specifications import all_specifications
from repro.driving.tasks import all_tasks
from repro.feedback.formal import FormalVerifier
from repro.glm2fsa.builder import build_controller_from_text
from repro.errors import AlignmentError
from repro.lm.corpus import format_prompt
from repro.lm.decode import sample_response_frontier
from repro.lm.sampling import sample_responses
from repro.modelcheck.checker import ModelChecker, NaiveModelChecker
from repro.modelcheck.fastpath import controller_fingerprint
from repro.obs import tracer as obs
from repro.obs.export import load_chrome_trace, spans_from_trace
from repro.obs.report import stage_breakdown
from repro.serving.config import ServingConfig
from repro.serving.dedup import canonicalize_response
from repro.serving.scheduler import FeedbackJob, FeedbackService
from repro.utils.rng import seeded_rng

#: Workload-property metrics and their units; a workload reports its own and
#: the runner fills the rest with 0.
PROPERTIES = {
    "workload.distinct_text_frac": "ratio",
    "workload.exact_repeat_frac": "ratio",
    "workload.structural_dup_frac": "ratio",
    "workload.parse_fail_frac": "ratio",
    "workload.mean_steps": "count",
}

#: The pipeline's top-level stage spans, reported as ``core.<stage>_s``.
CORE_STAGES = ("pretrain", "evaluate", "collect_pairs", "augment_pairs", "train")


def cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - platforms without affinity
        return os.cpu_count() or 1


def digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


def warm_automata(specifications) -> None:
    """Translate every rule-book formula into the process-wide Büchi memo.

    A throwaway verifier with no result cache checks one template, so the
    memo warms without touching the measured service's caches.
    """
    task = all_tasks()[0]
    verifier = FormalVerifier(specifications, checker=ModelChecker(result_cache_size=0))
    verifier.verify_response(
        scenario_model(task.scenario), response_templates(task.name, "compliant")[0], task=task.name
    )


def task_counts(evaluation) -> list:
    """``[(task, satisfied counts)]`` of a ``ModelEvaluation``: everything it scored."""
    return [(t.task, t.satisfied_counts) for t in evaluation.per_task]


def build_pipeline(seed: int, trace_dir: Path | None):
    """A paper-scale pipeline with world models built and the Büchi memo warm.

    With ``trace_dir`` the pipeline traces its run into a file there.
    """
    config = paper_scale_config(seed)
    if trace_dir is not None:
        config = dataclasses.replace(config, trace_path=str(trace_dir / "pipeline.trace.json"))
    pipeline = DPOAFPipeline(config)
    for task in list(pipeline.tasks) + list(pipeline.validation):
        pipeline.task_model(task)
        pipeline.serving.scenario_digest(task.scenario)
    warm_automata(pipeline.specifications)
    return pipeline


@dataclass
class Outcome:
    """What one measured phase produced."""

    run_s: float
    responses: int
    failed: int
    batch_ms: list
    spec_satisfaction: float
    digest: str
    pairs: int
    core: dict = field(default_factory=dict)


# ---------------------------------------------------------------------- #
# paper_e2e
# ---------------------------------------------------------------------- #
class PaperE2E:
    """``DPOAFPipeline(paper_scale_config(seed)).run()``: the paper's loop end to end.

    The measured phase is one full run, which already lasts longer than the
    benchmark's ``--seconds``; its single "batch" is the run itself.
    """

    name = "paper_e2e"
    GATE_TASKS = 3
    GATE_SAMPLES = 2

    def __init__(self, seed: int, seconds: float, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup(self, tracing: bool = False):
        return build_pipeline(self.seed, self.workdir if tracing else None)

    def close(self, pipeline) -> None:
        pipeline.close()

    def measure(self, pipeline) -> Outcome:
        start = time.perf_counter()
        result = pipeline.run()
        run_s = time.perf_counter() - start
        self.result = result
        pairs = [
            (pair.task, pair.chosen, pair.rejected, pair.chosen_score, pair.rejected_score)
            for pair in result.preference_pairs
        ]
        counts = [task_counts(result.before_evaluation), task_counts(result.after_evaluation)]
        outcome = Outcome(
            run_s=run_s,
            responses=pipeline.serving.metrics.snapshot()["jobs"],
            failed=0,
            batch_ms=[1000.0 * run_s],
            spec_satisfaction=result.after_evaluation.satisfaction_ratio(),
            digest=digest([counts, pairs]),
            pairs=len(pairs),
        )
        if pipeline.config.trace_path is not None:
            spans = spans_from_trace(load_chrome_trace(pipeline.config.trace_path))
            breakdown = stage_breakdown(spans)
            outcome.core = {
                stage: breakdown.get(f"pipeline.{stage}", {"seconds": 0.0})["seconds"]
                for stage in CORE_STAGES
            }
        return outcome

    def gates(self, pipeline, outcome: Outcome) -> dict:
        """DPO helped, and on a seeded subset the batched frontier text equals the serial sampler's."""
        model, tokenizer = self.result.pretrain_result.model, self.result.pretrain_result.tokenizer
        sampling = pipeline.config.sampling
        tasks = list(pipeline.tasks) + list(pipeline.validation)
        picks = np.random.default_rng([self.seed, 7]).choice(len(tasks), self.GATE_TASKS, replace=False)
        prompts = [format_prompt(tasks[i]) for i in sorted(picks)]
        options = dict(temperature=sampling.temperature, top_k=sampling.top_k, max_new_tokens=sampling.max_new_tokens)
        batched = sample_response_frontier(
            model, tokenizer, prompts, [self.GATE_SAMPLES] * len(prompts), rng=self.seed, **options
        )
        rng = seeded_rng(self.seed)
        serial = [sample_responses(model, tokenizer, p, self.GATE_SAMPLES, seed=rng, **options) for p in prompts]
        return {
            "improvement_positive": self.result.improvement > 0,
            "frontier_matches_serial_sampler": batched == serial,
        }

    def repeats(self, outcome: Outcome) -> bool:
        """A fresh pipeline's evaluation of the fine-tuned policy equals the run's own."""
        pipeline = build_pipeline(self.seed, None)
        try:
            again = pipeline.evaluate_model(self.result.dpo_result.policy, self.result.pretrain_result.tokenizer)
        finally:
            pipeline.close()
        return task_counts(again) == task_counts(self.result.after_evaluation)

    def properties(self) -> dict:
        return {}


# ---------------------------------------------------------------------- #
# feedback_serve
# ---------------------------------------------------------------------- #
#: Per template step: swapped for a random step of the task's pool with
#: probability SWAP, dropped with probability DROP, else kept; then a random
#: pool step is inserted while a draw falls below INSERT.  Tuned so that 4000
#: responses hold ~3660 distinct texts, as the prototype stream did (3664):
#: seeds 1–5 give 0.912–0.916 of them distinct.
SWAP, DROP, INSERT = 0.55, 0.10, 0.75


def response_stream(seed: int, count: int) -> list:
    """``count`` seeded ``(task, response)`` step-level recombinations of the templates.

    Each response starts from one of its task's templates (compliant, flawed
    or vague), then steps are swapped for, or joined by, steps of other
    templates of the same task, dropped, and renumbered.  Most texts are
    distinct; short ones recur as exact repeats, and different texts often
    compile to the same controller.
    """
    rng = np.random.default_rng([seed, 11])
    tasks = [task for task in all_tasks() if task.name in RESPONSE_LIBRARY]
    templates, pools = {}, {}
    for task in tasks:
        texts = list(response_templates(task.name, "compliant")) + list(response_templates(task.name, "flawed"))
        texts += list(VAGUE_RESPONSES)
        templates[task.name] = [[line.split(". ", 1)[1] for line in text.splitlines()] for text in texts]
        pools[task.name] = sorted({step for steps in templates[task.name] for step in steps})
    stream = []
    for _ in range(count):
        task = tasks[rng.integers(len(tasks))]
        base = templates[task.name][rng.integers(len(templates[task.name]))]
        pool = pools[task.name]
        steps = []
        for step in base:
            draw = rng.random()
            if draw < SWAP:
                steps.append(pool[rng.integers(len(pool))])
            elif draw >= SWAP + DROP:
                steps.append(step)
        while rng.random() < INSERT or not steps:
            steps.insert(rng.integers(len(steps) + 1), pool[rng.integers(len(pool))])
        stream.append((task, "\n".join(f"{i}. {step}" for i, step in enumerate(steps, 1))))
    return stream


class FeedbackServe:
    """One closed-loop client scoring batches through a fresh ``FeedbackService``.

    Batches of ``BATCH`` responses are submitted one at a time; the next is
    sent when the previous result arrives.  No language model is involved.
    """

    name = "feedback_serve"
    BATCH = 32
    BATCHES_PER_SECOND = 10   # reference rate; sizes the run from --seconds
    MIN_BATCHES = 100         # at least ten batch latencies lie beyond p90
    GATE_RESPONSES = 24
    REPEAT_BATCHES = 4

    def __init__(self, seed: int, seconds: float, workdir: Path):
        self.seed = seed
        self.specifications = all_specifications()
        batches = max(self.MIN_BATCHES, round(seconds * self.BATCHES_PER_SECOND))
        stream = response_stream(seed, batches * self.BATCH)
        self.batches = [
            [FeedbackJob(task=task.name, scenario=task.scenario, response=text) for task, text in stream[i : i + self.BATCH]]
            for i in range(0, len(stream), self.BATCH)
        ]
        self.scores: list = []

    def setup(self, tracing: bool = False):
        if tracing:
            # Installed before the service is built, as the pipeline does.
            obs.install_tracer(obs.Tracer())
        config = ServingConfig(max_workers=min(ServingConfig().max_workers, cpu_count()))
        service = FeedbackService(self.specifications, config=config)
        for scenario in sorted({task.scenario for task in all_tasks()}):
            service.scenario_model(scenario)
            service.scenario_digest(scenario)
        warm_automata(self.specifications)
        return service

    def close(self, service) -> None:
        service.close()
        obs.uninstall_tracer()

    def measure(self, service) -> Outcome:
        scores, batch_ms = [], []
        responses = failed = 0
        start = time.perf_counter()
        for jobs in self.batches:
            sent = time.perf_counter()
            responses += len(jobs)
            try:
                batch_scores = service.submit_batch(jobs).result()
            except Exception:
                failed += len(jobs)
                batch_scores = [None] * len(jobs)
            batch_ms.append(1000.0 * (time.perf_counter() - sent))
            scores.append(batch_scores)
        run_s = time.perf_counter() - start
        self.scores = scores
        scored = [score for batch in scores for score in batch if score is not None]
        return Outcome(
            run_s=run_s,
            responses=responses,
            failed=failed,
            batch_ms=batch_ms,
            spec_satisfaction=float(np.mean(scored)) / len(self.specifications),
            digest=digest(scores),
            pairs=0,
        )

    def gates(self, service, outcome: Outcome) -> dict:
        """Scores of a seeded subsample equal a verifier on ``NaiveModelChecker``."""
        scored = [
            (job, score)
            for jobs, scores in zip(self.batches, self.scores)
            for job, score in zip(jobs, scores)
        ]
        picks = np.random.default_rng([self.seed, 13]).choice(len(scored), self.GATE_RESPONSES, replace=False)
        oracle = FormalVerifier(self.specifications, checker=NaiveModelChecker())
        return {
            "scores_match_naive_checker": all(
                oracle.verify_response(scenario_model(job.scenario), job.response, task=job.task).num_satisfied
                == score
                for job, score in (scored[i] for i in picks)
            )
        }

    def repeats(self, outcome: Outcome) -> bool:
        """Seeded batches, rescored by a fresh service with a cold cache, score the same."""
        picks = np.random.default_rng([self.seed, 17]).choice(len(self.batches), self.REPEAT_BATCHES, replace=False)
        service = self.setup()
        try:
            return all(service.score_batch(self.batches[i]) == self.scores[i] for i in sorted(picks))
        finally:
            self.close(service)

    def properties(self) -> dict:
        """Input shares of the scored stream that a cache or dedup change would cite."""
        jobs = [job for batch in self.batches for job in batch]
        texts, structures = set(), set()
        controllers: dict = {}   # (scenario, canonical text) -> controller fingerprint or None
        repeats = parse_failures = structural = steps = 0
        for job in jobs:
            texts.add(job.response)
            key = (job.scenario, canonicalize_response(job.response))
            steps += len(key[1].splitlines())
            if key in controllers:
                repeats += 1
            else:
                try:
                    controllers[key] = controller_fingerprint(build_controller_from_text(job.response, task=job.task))
                except AlignmentError:
                    controllers[key] = None
                structure = (job.scenario, controllers[key])
                if controllers[key] is not None and structure in structures:
                    structural += 1
                structures.add(structure)
            parse_failures += controllers[key] is None
        n = len(jobs)
        return {
            "workload.distinct_text_frac": len(texts) / n,
            "workload.exact_repeat_frac": repeats / n,
            "workload.structural_dup_frac": structural / n,
            "workload.parse_fail_frac": parse_failures / n,
            "workload.mean_steps": steps / n,
        }


WORKLOADS = {cls.name: cls for cls in (PaperE2E, FeedbackServe)}
