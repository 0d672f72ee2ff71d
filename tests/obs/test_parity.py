"""Tracing must never change what the system computes.

The contract the whole observability layer rests on: a traced run produces
bitwise-identical scores and pipeline results to an untraced run.
"""

import dataclasses
from pathlib import Path

import pytest

from repro.core import DPOAFPipeline
from repro.core.config import FeedbackConfig, quick_pipeline_config
from repro.driving import core_specifications, response_templates, training_tasks
from repro.obs import tracer as obs
from repro.obs.export import load_chrome_trace, spans_from_trace
from repro.obs.report import report_from_trace
from repro.obs.tracer import Tracer
from repro.lm.shards import worker_available
from repro.serving import FeedbackJob, FeedbackService


def _jobs() -> list:
    jobs = []
    for task in training_tasks()[:3]:
        for kind in ("compliant", "flawed"):
            for response in response_templates(task.name, kind):
                jobs.append(FeedbackJob(task=task.name, scenario=task.scenario, response=response))
    return jobs


def _score(feedback) -> list:
    with FeedbackService(core_specifications(), feedback=feedback) as service:
        return service.score_batch(_jobs())


class TestScoringParity:
    @pytest.mark.parametrize(
        "feedback",
        [FeedbackConfig(), FeedbackConfig(use_empirical=True)],
        ids=["formal", "empirical"],
    )
    def test_traced_scores_match_untraced_scores(self, feedback):
        untraced = _score(feedback)
        tracer = obs.install_tracer(Tracer())
        try:
            traced = _score(feedback)
        finally:
            obs.uninstall_tracer()
        assert traced == untraced
        batches = [s for s in tracer.spans() if s.name == "serving.score_batch"]
        assert [s.attributes for s in batches] == [{"jobs": len(_jobs())}]
        # The traced run recorded real verification work: each structure's
        # shared pass over every rule (the simulator behind empirical scores
        # records no spans).
        checker = [s for s in tracer.spans() if s.name.startswith("mc.")]
        if feedback.use_empirical:
            assert checker == []
        else:
            products = [s.attributes for s in checker if s.name == "mc.product"]
            assert products and all(p == {"rules": len(core_specifications())} for p in products)


@pytest.fixture(scope="module")
def pipeline_parity(tmp_path_factory):
    """One quick pipeline run untraced, one traced, identical seeds."""
    runs = {}
    for traced in (False, True):
        trace_path = (
            str(tmp_path_factory.mktemp("trace") / "run.trace.json") if traced else None
        )
        config = dataclasses.replace(quick_pipeline_config(seed=0), trace_path=trace_path)
        with DPOAFPipeline(
            config, specifications=core_specifications(), tasks=training_tasks()[:2], validation=()
        ) as pipeline:
            runs[traced] = (pipeline.run(augment_pairs=True), trace_path)
    return runs


class TestPipelineParity:
    def test_traced_pipeline_result_is_bitwise_identical(self, pipeline_parity):
        untraced, _ = pipeline_parity[False]
        traced, _ = pipeline_parity[True]
        as_tuples = lambda pairs: [
            (p.task, p.prompt, p.chosen, p.rejected, p.chosen_score, p.rejected_score) for p in pairs
        ]
        assert as_tuples(traced.preference_pairs) == as_tuples(untraced.preference_pairs)
        counts = lambda ev: [(t.task, t.split, list(t.satisfied_counts)) for t in ev.per_task]
        assert counts(traced.before_evaluation) == counts(untraced.before_evaluation)
        assert counts(traced.after_evaluation) == counts(untraced.after_evaluation)
        assert traced.dpo_result.history.losses == untraced.dpo_result.history.losses

    def test_traced_run_leaves_only_its_trace_file(self, pipeline_parity):
        _, trace_path = pipeline_parity[True]
        trace_dir = Path(trace_path).parent
        assert sorted(path.name for path in trace_dir.iterdir()) == ["run.trace.json"]

    def test_traced_run_exported_a_valid_trace(self, pipeline_parity):
        _, trace_path = pipeline_parity[True]
        document = load_chrome_trace(trace_path)
        timestamps = [e["ts"] for e in document["traceEvents"]]
        assert timestamps == sorted(timestamps)
        names = {e["name"] for e in document["traceEvents"]}
        assert {"pipeline.pretrain", "pipeline.train", "serving.score_batch", "mc.product"} <= names
        metrics = document["otherData"]["metrics"]
        assert metrics["serving"]["jobs"] > 0

    def test_trace_records_page_faults_and_peak_rss_of_both_processes(self, pipeline_parity):
        _, trace_path = pipeline_parity[True]
        document = load_chrome_trace(trace_path)
        process = document["otherData"]["metrics"]["process"]
        assert set(process) == {"self", "children"}
        for side in ("self", "children"):
            assert set(process[side]) == {"minor_faults", "peak_rss_mb"}
        assert process["self"]["minor_faults"] > 0 and process["self"]["peak_rss_mb"] > 0
        if worker_available():  # the run forked and reaped a training worker per loop
            assert process["children"]["minor_faults"] > 0 and process["children"]["peak_rss_mb"] > 0
        assert report_from_trace(document).splitlines().count("== process ==") == 1

    def test_training_spans_nest_where_the_work_runs(self, pipeline_parity):
        """One ``pretrain.step`` per pretraining step, inside
        ``pipeline.pretrain``; reference forwards only inside first-epoch
        ``dpo.step`` spans, because later epochs read the memo."""
        _, trace_path = pipeline_parity[True]
        spans = spans_from_trace(load_chrome_trace(trace_path))
        by_id = {s.span_id: s for s in spans}
        pretrain_config = quick_pipeline_config(seed=0).pretrain
        (stage,) = [s for s in spans if s.name == "pipeline.pretrain"]
        steps = [s for s in spans if s.name == "pretrain.step"]
        assert len(steps) == pretrain_config.num_steps
        assert all(s.parent_id == stage.span_id and s.category == "train" for s in steps)
        assert sorted(s.attributes["step"] for s in steps) == list(range(1, pretrain_config.num_steps + 1))
        forwards = [s for s in spans if s.name == "dpo.reference_forward"]
        assert forwards
        for forward in forwards:
            step = by_id[forward.parent_id]
            assert (step.name, step.attributes["epoch"]) == ("dpo.step", 1)
            assert forward.category == "train" and forward.attributes["rows"] > 0

    def test_length_group_spans_nest_in_their_step(self, pipeline_parity):
        """One ``train.forward`` and one ``train.backward`` per length group,
        each directly inside its ``pretrain.step`` or ``dpo.step``; a step's
        groups cover exactly the batch's rows that have a target, each at a
        width the model can run.  Each process runs its groups in plan order,
        forward and backward alike, so rows match per (step, shard); across
        the two processes spans are in start order, which may differ."""
        result, trace_path = pipeline_parity[True]
        spans = spans_from_trace(load_chrome_trace(trace_path))
        by_id = {s.span_id: s for s in spans}
        config = quick_pipeline_config(seed=0)
        rows = {"train.forward": {}, "train.backward": {}}
        for span in spans:
            if span.name in rows:
                step = by_id[span.parent_id]
                assert step.name in ("pretrain.step", "dpo.step") and span.category == "train"
                assert 1 <= span.attributes["width"] < result.pretrain_result.model.config.max_seq_len
                step_rows = rows[span.name].setdefault((span.parent_id, span.attributes["shard"]), [])
                step_rows.append(span.attributes["rows"])
        assert rows["train.forward"] == rows["train.backward"]
        covered: dict = {}
        for (step, _), shard_rows in rows["train.forward"].items():
            covered[step] = covered.get(step, 0) + sum(shard_rows)
        per_step = {by_id[step].name: [] for step in covered}
        for step in sorted(covered, key=lambda step: by_id[step].start_ns):
            per_step[by_id[step].name].append(covered[step])
        # Every pretraining document and every DPO response has a target.
        assert per_step["pretrain.step"] == [config.pretrain.batch_size] * config.pretrain.num_steps
        pairs = result.dpo_result.throughput["pairs"] // config.dpo.num_epochs
        full, rest = divmod(pairs, config.dpo.batch_size)
        epoch = [2 * config.dpo.batch_size] * full + ([2 * rest] if rest else [])
        assert per_step["dpo.step"] == epoch * config.dpo.num_epochs

    def test_every_step_holds_one_optimizer_step_and_one_reduction(self, pipeline_parity):
        """The parent's serial share of a step is named: exactly one
        ``optim.step`` and one ``train.reduce`` directly inside every
        ``pretrain.step`` and every ``dpo.step``."""
        _, trace_path = pipeline_parity[True]
        spans = spans_from_trace(load_chrome_trace(trace_path))
        steps = {s.span_id: s for s in spans if s.name in ("pretrain.step", "dpo.step")}
        for name in ("optim.step", "train.reduce"):
            parents = [s.parent_id for s in spans if s.name == name]
            assert sorted(parents) == sorted(steps), name
            assert all(s.category == "train" for s in spans if s.name == name)

    @pytest.mark.skipif(not worker_available(), reason="the training worker needs fork and two usable cores")
    def test_both_shards_record_their_length_groups(self, pipeline_parity):
        """With a worker, each process's group spans carry its ``shard``, the
        worker's come from its own pid, and all sit directly in their step."""
        _, trace_path = pipeline_parity[True]
        spans = spans_from_trace(load_chrome_trace(trace_path))
        by_id = {s.span_id: s for s in spans}
        (stage,) = [s for s in spans if s.name == "pipeline.pretrain"]
        groups = [s for s in spans if s.name in ("train.forward", "train.backward")]
        for name in ("train.forward", "train.backward"):
            assert {s.attributes["shard"] for s in groups if s.name == name} == {0, 1}
        assert {s.pid for s in groups if s.attributes["shard"] == 0} == {stage.pid}
        assert stage.pid not in {s.pid for s in groups if s.attributes["shard"] == 1}
        assert all(by_id[s.parent_id].name in ("pretrain.step", "dpo.step") for s in groups)

    def test_untraced_run_leaves_the_null_tracer_installed(self, pipeline_parity):
        assert not obs.tracing_enabled()
