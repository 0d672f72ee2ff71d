"""Tests for the batched feedback-serving subsystem (cache, dedup, scheduler)."""

import pytest

from repro.core.config import FeedbackConfig
from repro.driving import (
    all_specifications,
    all_tasks,
    core_specifications,
    response_templates,
    task_by_name,
)
from repro.feedback import EmpiricalEvaluator, FormalVerifier
from repro.glm2fsa import build_controller_from_text
from repro.serving import (
    FeedbackCache,
    FeedbackJob,
    FeedbackService,
    ResponseScorer,
    ServingConfig,
    cache_key,
    canonicalize_response,
)
from repro.serving.config import EMPIRICAL_THRESHOLD, EMPIRICAL_TRACES
from repro.serving.scheduler import run_serial
from repro.sim import SimulationGrounding


class TestCanonicalization:
    def test_whitespace_variants_collapse(self):
        base = "1. Observe the traffic light.\n2. If there is a pedestrian, stop."
        variants = [
            base,
            base.replace("\n", "\r\n"),
            "  1. Observe the traffic light.  \n\n2. If there is a pedestrian, stop.\n",
            base + "\n\n",
        ]
        forms = {canonicalize_response(v) for v in variants}
        assert len(forms) == 1

    def test_internal_whitespace_is_preserved(self):
        # The alignment lexicon is sensitive to spacing inside a line, so the
        # canonical form must not merge these (they could score differently).
        a = canonicalize_response("1. If there is no car  from the left, turn right.")
        b = canonicalize_response("1. If there is no car from the left, turn right.")
        assert a != b


class TestCacheKey:
    def test_key_is_stable(self):
        assert cache_key("roundabout", "1. stop") == cache_key("roundabout", "1. stop")
        # A 1 MB response enters the key as a fixed 32-byte digest.
        scenario, digest = cache_key("roundabout", "1. stop\n" * (1 << 17))
        assert scenario == "roundabout" and len(digest) == 32

    def test_key_separates_every_input(self):
        base = cache_key("roundabout", "1. stop")
        assert cache_key("highway_merge", "1. stop") != base
        assert cache_key("roundabout", "1. go straight") != base


class TestFeedbackCache:
    def test_lru_eviction_order(self):
        cache = FeedbackCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1      # refreshes "a"; "b" is now LRU
        cache.put("c", 3)
        assert cache.get("b") is None
        assert len(cache) == 2
        cache.put("d", 4)               # "a" is now the least recent
        assert cache.get("a") is None
        assert (cache.get("c"), cache.get("d")) == (3, 4)

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError):
            FeedbackCache(max_entries=0)

    def test_put_refreshes_an_existing_key(self):
        cache = FeedbackCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)              # new score, and "b" is now LRU
        cache.put("c", 3)
        assert len(cache) == 2
        assert cache.get("b") is None
        assert cache.get("a") == 10


def _first_task_per_scenario() -> tuple:
    first: dict = {}
    for task in all_tasks():
        first.setdefault(task.scenario, task)
    return tuple(first.values())


@pytest.fixture(scope="module")
def right_turn_task():
    return task_by_name("turn_right_traffic_light")


@pytest.fixture(scope="module")
def batch_responses(right_turn_task):
    compliant = response_templates(right_turn_task.name, "compliant")
    flawed = response_templates(right_turn_task.name, "flawed")
    # Duplicates and whitespace variants, as sampling produces them.
    return [compliant[0], flawed[0], compliant[0], compliant[0] + "\n", flawed[1], "1. Drive nicely."]


class TestFeedbackService:
    def test_cached_formal_score_matches_recomputation(self, right_turn_task):
        service = FeedbackService(core_specifications(), feedback=FeedbackConfig())
        response = response_templates(right_turn_task.name, "compliant")[0]
        first = service.score_response(right_turn_task, response)
        second = service.score_response(right_turn_task, response)
        verifier = FormalVerifier(core_specifications())
        direct = verifier.verify_response(right_turn_task.model(), response, task=right_turn_task.name)
        assert first == second == direct.num_satisfied
        assert service.metrics.cache_hits == 1

    @pytest.mark.parametrize("task", _first_task_per_scenario(), ids=lambda task: task.scenario)
    def test_cached_empirical_score_matches_recomputation(self, task):
        feedback = FeedbackConfig(use_empirical=True)
        service = FeedbackService(core_specifications(), feedback=feedback, seed=0)
        response = response_templates(task.name, "compliant")[0]
        first = service.score_response(task, response)
        second = service.score_response(task, response)
        evaluator = EmpiricalEvaluator(
            core_specifications(),
            SimulationGrounding(task.scenario),
            threshold=EMPIRICAL_THRESHOLD,
        )
        controller = build_controller_from_text(response, task=task.name)
        direct = evaluator.evaluate_controller(controller, num_traces=EMPIRICAL_TRACES, seed=0)
        assert first == second == direct.num_satisfied
        assert service.metrics.cache_hits == 1

    def test_unparseable_response_scores_zero(self, right_turn_task):
        for feedback in (FeedbackConfig(), FeedbackConfig(use_empirical=True)):
            service = FeedbackService(core_specifications(), feedback=feedback)
            assert service.score_response(right_turn_task, "Please drive safely out there.") == 0

    @pytest.mark.parametrize(
        "feedback", [FeedbackConfig(), FeedbackConfig(use_empirical=True)], ids=["formal", "empirical"]
    )
    def test_batch_order_is_deterministic(self, right_turn_task, batch_responses, feedback):
        with FeedbackService(core_specifications(), feedback=feedback) as service:
            batch_scores = service.score_responses(right_turn_task, batch_responses)
        reference = FeedbackService(
            core_specifications(), feedback=feedback, config=ServingConfig(enabled=False)
        )
        serial_scores = [reference.score_response(right_turn_task, r) for r in batch_responses]
        assert batch_scores == serial_scores
        # Duplicates (exact and whitespace-variant) resolved without re-verification.
        assert service.metrics.dedup_rate > 0

    def test_disabled_serving_skips_cache(self, right_turn_task):
        service = FeedbackService(
            core_specifications(), feedback=FeedbackConfig(), config=ServingConfig(enabled=False)
        )
        response = response_templates(right_turn_task.name, "compliant")[0]
        assert service.score_response(right_turn_task, response) == service.score_response(
            right_turn_task, response
        )
        assert len(service.cache) == 0
        assert service.metrics.hit_rate == 0.0

    def test_disabled_serving_records_no_cache_lookups(self, right_turn_task, batch_responses):
        """The reference path performs no lookups, so the telemetry must show
        none — not `misses=len(jobs)` pretending the cache was consulted."""
        service = FeedbackService(
            core_specifications(), feedback=FeedbackConfig(), config=ServingConfig(enabled=False)
        )
        service.score_responses(right_turn_task, batch_responses)
        snapshot = service.metrics.snapshot()
        assert snapshot["cache_hits"] == 0 and snapshot["cache_misses"] == 0
        assert snapshot["uncached_jobs"] == len(batch_responses)
        assert snapshot["hit_rate"] == 0.0 and snapshot["dedup_rate"] == 0.0

    def test_enabled_serving_records_no_uncached_jobs(self, right_turn_task, batch_responses):
        service = FeedbackService(core_specifications(), feedback=FeedbackConfig())
        service.score_responses(right_turn_task, batch_responses)
        snapshot = service.metrics.snapshot()
        assert snapshot["uncached_jobs"] == 0
        assert snapshot["cache_misses"] > 0

    def test_metrics_mutation_is_thread_safe(self):
        import threading

        from repro.serving import ServingMetrics

        metrics = ServingMetrics()

        def record():
            for _ in range(500):
                metrics.record_batch(jobs=2, unique=1, hits=0, misses=1, seconds=0.001)

        threads = [threading.Thread(target=record) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert metrics.batches == 2000 and metrics.jobs == 4000
        assert metrics.unique_jobs == metrics.cache_misses == 2000
        assert metrics.total_seconds == pytest.approx(2.0)

    def test_evaluator_and_model_built_once_per_scenario(self, right_turn_task):
        service = FeedbackService(
            core_specifications(), feedback=FeedbackConfig(use_empirical=True)
        )
        assert service.scenario_model(right_turn_task.scenario) is service.scenario_model(right_turn_task.scenario)
        assert service.evaluator(right_turn_task.scenario) is service.evaluator(right_turn_task.scenario)

    def test_metrics_snapshot_carries_the_counters_consumers_read(self, right_turn_task, batch_responses):
        """The counters the benchmark sums across services and the report
        formats are all in the snapshot."""
        service = FeedbackService(core_specifications(), feedback=FeedbackConfig())
        service.score_responses(right_turn_task, batch_responses)
        snapshot = service.metrics.snapshot()
        for key in ("jobs", "unique_jobs", "cache_hits", "cache_misses", "total_seconds",
                    "throughput", "hit_rate", "dedup_rate"):
            assert key in snapshot, key
        assert snapshot["cache_hits"] + snapshot["cache_misses"] == snapshot["unique_jobs"]

    def test_metrics_snapshot_shape(self, right_turn_task, batch_responses):
        service = FeedbackService(core_specifications(), feedback=FeedbackConfig())
        service.score_responses(right_turn_task, batch_responses)
        snapshot = service.metrics.snapshot()
        assert snapshot["jobs"] == len(batch_responses)
        assert snapshot["unique_jobs"] < snapshot["jobs"]
        assert snapshot["throughput"] > 0
        assert 0.0 < snapshot["dedup_rate"] < 1.0

    def test_empty_metrics_report_zero_rates(self):
        from repro.serving import ServingMetrics

        snapshot = ServingMetrics().snapshot()
        for rate in ("hit_rate", "dedup_rate", "throughput", "mean_batch_latency"):
            assert snapshot[rate] == 0.0, rate

    def test_metrics_rates_follow_the_counters(self):
        from repro.serving import ServingMetrics

        metrics = ServingMetrics()
        metrics.record_batch(jobs=4, unique=2, hits=1, misses=1, seconds=0.5)
        metrics.record_batch(jobs=2, unique=2, hits=0, misses=2, seconds=1.5)
        assert metrics.mean_batch_latency == 1.0
        assert metrics.throughput == 3.0
        assert metrics.hit_rate == 0.25
        assert metrics.dedup_rate == pytest.approx(1 / 3)

    def test_zero_score_is_a_cache_hit(self, right_turn_task):
        """An unparseable response scores 0, and 0 is a cached score, not a miss."""
        service = FeedbackService(core_specifications(), feedback=FeedbackConfig())
        for _ in range(2):
            assert service.score_response(right_turn_task, "Please drive safely out there.") == 0
        assert service.metrics.cache_misses == 1 and service.metrics.cache_hits == 1

    def test_same_text_in_two_scenarios_keeps_both_scores(self, right_turn_task):
        """The scenario is part of the key: one text, two world models, two scores."""
        texts = list(response_templates(right_turn_task.name, "compliant"))
        texts += list(response_templates(right_turn_task.name, "flawed"))
        jobs = [
            FeedbackJob(task=right_turn_task.name, scenario=scenario, response=text)
            for text in texts
            for scenario in (right_turn_task.scenario, "roundabout")
        ]
        service = FeedbackService(core_specifications(), feedback=FeedbackConfig())
        reference = FeedbackService(
            core_specifications(), feedback=FeedbackConfig(), config=ServingConfig(enabled=False)
        )
        scores = service.score_batch(jobs)
        assert scores == reference.score_batch(jobs)
        assert any(here != there for here, there in zip(scores[::2], scores[1::2]))
        assert service.metrics.unique_jobs == len(jobs)

    @pytest.mark.parametrize("cache_size", [1, 3, 4096])
    def test_eviction_never_changes_scores(self, right_turn_task, batch_responses, cache_size):
        """One job per batch, so repeats reach the LRU rather than dedup."""
        responses = batch_responses * 3
        service = FeedbackService(
            core_specifications(), feedback=FeedbackConfig(), config=ServingConfig(cache_size=cache_size)
        )
        reference = FeedbackService(
            core_specifications(), feedback=FeedbackConfig(), config=ServingConfig(enabled=False)
        )
        scores = [service.score_response(right_turn_task, response) for response in responses]
        assert scores == reference.score_responses(right_turn_task, responses)
        distinct = len({canonicalize_response(response) for response in responses})
        assert len(service.cache) == min(cache_size, distinct)
        if cache_size >= distinct:
            assert service.metrics.cache_misses == distinct

    @pytest.mark.parametrize(
        "first, second",
        [
            ({"specifications": core_specifications()}, {"specifications": all_specifications()}),
            ({"feedback": FeedbackConfig()}, {"feedback": FeedbackConfig(use_empirical=True)}),
            (
                {"feedback": FeedbackConfig(use_empirical=True), "seed": 0},
                {"feedback": FeedbackConfig(use_empirical=True), "seed": 1},
            ),
        ],
        ids=["rule-book", "mode", "seed"],
    )
    def test_services_never_share_scores(self, right_turn_task, first, second):
        """The key leaves out what is fixed for a service's lifetime, so two
        services that differ in one such input must each score on their own."""
        responses = list(response_templates(right_turn_task.name, "compliant"))
        responses += list(response_templates(right_turn_task.name, "flawed"))
        scores = []
        for options in (first, second):
            options = {"specifications": core_specifications(), "feedback": FeedbackConfig(), **options}
            specifications = options.pop("specifications")
            service = FeedbackService(specifications, **options)
            reference = FeedbackService(specifications, config=ServingConfig(enabled=False), **options)
            scores.append(service.score_responses(right_turn_task, responses))
            assert scores[-1] == reference.score_responses(right_turn_task, responses)
        assert scores[0] != scores[1], "the input under test does not change any score here"

    def test_rejects_nonpositive_cache_size(self):
        with pytest.raises(ValueError, match="cache_size"):
            ServingConfig(cache_size=0)

    @pytest.mark.parametrize("max_workers", [0, 1, 64])
    def test_max_workers_has_no_effect(self, right_turn_task, batch_responses, max_workers):
        """The field is kept only for the committed benchmark, which sets it:
        any value is accepted and scores exactly as the default does."""
        config = ServingConfig(max_workers=max_workers)
        with FeedbackService(core_specifications(), config=config) as service:
            scores = service.score_responses(right_turn_task, batch_responses)
        with FeedbackService(core_specifications()) as default:
            assert scores == default.score_responses(right_turn_task, batch_responses)


class TestCli:
    def test_scores_jsonl_with_explicit_scenario(self, tmp_path, capsys):
        from repro.serving.cli import main

        jsonl = tmp_path / "in.jsonl"
        jsonl.write_text(
            '{"task": "enter_roundabout", "response": "1. If there is a pedestrian, stop."}\n'
            '{"task": "merge_onto_highway", "scenario": "highway_merge", "response": "1. Go straight onto the highway."}\n'
        )
        out = tmp_path / "out.jsonl"
        assert main([str(jsonl), "--core-specs", "-o", str(out)]) == 0
        import json

        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r["scenario"] for r in records] == ["roundabout", "highway_merge"]
        assert all(isinstance(r["score"], int) for r in records)

    def test_rejects_unknown_task_without_scenario(self, tmp_path, capsys):
        from repro.serving.cli import main

        jsonl = tmp_path / "in.jsonl"
        jsonl.write_text('{"task": "fly_to_the_moon", "response": "1. Stop."}\n')
        assert main([str(jsonl)]) == 2
        assert "add a 'scenario' field" in capsys.readouterr().err

    def test_rejects_non_string_fields_before_scoring(self, tmp_path, capsys):
        from repro.serving.cli import main

        jsonl = tmp_path / "in.jsonl"
        jsonl.write_text('{"task": "enter_roundabout", "response": 5}\n')
        assert main([str(jsonl)]) == 2
        assert "'response' must be a string" in capsys.readouterr().err
        jsonl.write_text('{"task": "enter_roundabout", "response": "1. Stop.", "scenario": 9}\n')
        assert main([str(jsonl)]) == 2
        assert "'scenario' must be a string" in capsys.readouterr().err

    def test_metadata_fields_round_trip_to_output(self, tmp_path, capsys):
        """Extra input fields (ids, provenance) must survive into the output."""
        import json

        from repro.serving.cli import main

        record = {
            "task": "enter_roundabout",
            "response": "1. If there is a pedestrian, stop.",
            "id": "sample-17",
            "meta": {"epoch": 3, "origin": "dpo-sampling"},
        }
        jsonl = tmp_path / "in.jsonl"
        jsonl.write_text(json.dumps(record) + "\n")
        out = tmp_path / "out.jsonl"
        assert main([str(jsonl), "--core-specs", "-o", str(out)]) == 0
        (scored,) = [json.loads(line) for line in out.read_text().splitlines()]
        assert scored["id"] == "sample-17"
        assert scored["meta"] == {"epoch": 3, "origin": "dpo-sampling"}
        assert scored["scenario"] == "roundabout"
        assert isinstance(scored["score"], int)
        # Everything from the input is still there, score/scenario merged in.
        assert scored == {**record, "scenario": "roundabout", "score": scored["score"]}

    def test_input_is_validated_before_the_service_is_built(self, tmp_path, capsys, monkeypatch):
        """A bad input file must fail fast, before verifier construction."""
        import repro.serving.scheduler as scheduler

        def exploding_init(self, *args, **kwargs):
            raise AssertionError("FeedbackService must not be built for invalid input")

        monkeypatch.setattr(scheduler.FeedbackService, "__init__", exploding_init)
        from repro.serving.cli import main

        missing = tmp_path / "nope.jsonl"
        assert main([str(missing)]) == 2
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        assert main([str(bad)]) == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_deeply_nested_line_is_an_invalid_json_error(self, tmp_path, capsys):
        """json.loads raises RecursionError, not ValueError, past its nesting
        limit; the CLI must still report the line and exit 2."""
        from repro.serving.cli import main

        deep = tmp_path / "deep.jsonl"
        deep.write_text('{"task": "enter_roundabout", "response": "1. Stop."}\n' + "[" * 100_000 + "\n")
        assert main([str(deep)]) == 2
        assert capsys.readouterr().err.startswith(f"repro-serve: {deep}:2: invalid JSON")

    def test_service_flags_build_the_serving_config(self):
        from repro.serving.cli import build_parser, serving_config_from_args

        args = build_parser().parse_args(["in.jsonl", "--cache-size", "7"])
        assert serving_config_from_args(args) == ServingConfig(cache_size=7)
        assert serving_config_from_args(build_parser().parse_args(["in.jsonl"])) == ServingConfig()

    def test_nonpositive_cache_size_exits_2(self, tmp_path, capsys):
        from repro.serving.cli import main

        jsonl = tmp_path / "in.jsonl"
        jsonl.write_text('{"task": "enter_roundabout", "response": "1. Stop."}\n')
        assert main([str(jsonl), "--cache-size", "0"]) == 2
        assert "repro-serve: cache_size must be positive" in capsys.readouterr().err

    def test_failed_run_leaves_no_truncated_output(self, tmp_path, capsys):
        import json

        from repro.serving.cli import main

        out = tmp_path / "out.jsonl"
        out.write_text('{"task": "previous", "score": 1}\n')
        jsonl = tmp_path / "in.jsonl"
        jsonl.write_text('{"task": "enter_roundabout"}\n')  # missing response
        assert main([str(jsonl), "-o", str(out)]) == 2
        # The pre-existing output is untouched and no tmp litter remains.
        assert json.loads(out.read_text())["task"] == "previous"
        assert list(tmp_path.glob("out.jsonl.tmp.*")) == []

    def test_trace_run_leaves_only_the_trace_file(self, tmp_path, capsys):
        from repro.obs.export import load_chrome_trace
        from repro.serving.cli import main

        jsonl = tmp_path / "in.jsonl"
        jsonl.write_text('{"task": "enter_roundabout", "response": "1. If there is a pedestrian, stop."}\n')
        trace_dir = tmp_path / "trace"
        trace_dir.mkdir()
        trace = trace_dir / "run.trace.json"
        assert main([str(jsonl), "--core-specs", "-o", str(tmp_path / "out.jsonl"), "--trace", str(trace)]) == 0
        assert sorted(path.name for path in trace_dir.iterdir()) == ["run.trace.json"]
        names = {event["name"] for event in load_chrome_trace(trace)["traceEvents"]}
        assert "serving.score_batch" in names

    @pytest.mark.parametrize(
        "flag", [("--backend", "process"), ("--max-workers", "2")], ids=["backend", "max-workers"]
    )
    @pytest.mark.parametrize("command", ["oneshot", "daemon"])
    def test_removed_service_flags_are_usage_errors(self, tmp_path, capsys, command, flag):
        """Misses are scored inline, so neither the one-shot command nor the
        daemon takes a backend or a worker count; the daemon creates nothing."""
        from repro.serving.cli import main

        jsonl = tmp_path / "in.jsonl"
        jsonl.write_text('{"task": "enter_roundabout", "response": "1. Stop."}\n')
        if command == "oneshot":
            argv = [str(jsonl), "-o", str(tmp_path / "out.jsonl")]
        else:
            argv = ["daemon", "--socket", str(tmp_path / "d.sock"), "--store", str(tmp_path / "store")]
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, *flag])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert sorted(path.name for path in tmp_path.iterdir()) == ["in.jsonl"]

    def _pairs_workload(self, tmp_path):
        import json

        from repro.driving import response_templates

        records = []
        for name in ("enter_roundabout", "turn_right_traffic_light"):
            for index, response in enumerate(response_templates(name, "compliant")):
                records.append({"task": name, "response": response, "id": f"{name}/{index}"})
        jsonl = tmp_path / "in.jsonl"
        jsonl.write_text("".join(json.dumps(record) + "\n" for record in records))
        return jsonl, records

    def test_pairs_output_writes_encoded_preference_pairs(self, tmp_path, capsys):
        """--pairs-output emits per-task canonically ranked pairs, reloadable
        as EncodedPair records."""
        from repro.dpo import read_encoded_pairs
        from repro.serving.cli import main

        jsonl, records = self._pairs_workload(tmp_path)
        pairs_path = tmp_path / "pairs.jsonl"
        argv = [str(jsonl), "--core-specs", "-o", str(tmp_path / "out.jsonl"),
                "--pairs-output", str(pairs_path)]
        assert main(argv) == 0
        err = capsys.readouterr().err
        assert "encoded preference pairs" in err and "encode stage" in err
        encoded = read_encoded_pairs(pairs_path)
        tasks_seen = {pair.task for pair in encoded}
        assert tasks_seen <= {record["task"] for record in records}
        for pair in encoded:
            assert pair.chosen_ids and pair.rejected_ids
            assert 0 < pair.chosen_response_start < len(pair.chosen_ids)

    #: SHA-256 of --pairs-output for the workload above, scored against all 15
    #: rules (against the core five every compliant template ties, which would
    #: pin an empty file).  Any change to ranking, tokenisation or the record
    #: format changes these bytes.
    PAIRS_OUTPUT_SHA256 = "1347bd88ee0557196d993e3f4313adf0fd180eda5d8ba357d9fad89ec5514e9d"

    def test_pairs_output_bytes_are_pinned(self, tmp_path, capsys):
        import hashlib

        from repro.serving.cli import main

        jsonl, _ = self._pairs_workload(tmp_path)
        pairs_path = tmp_path / "pairs.jsonl"
        argv = [str(jsonl), "-o", str(tmp_path / "out.jsonl"), "--pairs-output", str(pairs_path)]
        assert main(argv) == 0
        data = pairs_path.read_bytes()
        assert data.count(b"\n") == 2
        assert hashlib.sha256(data).hexdigest() == self.PAIRS_OUTPUT_SHA256

    def test_failed_pair_encoding_keeps_the_previous_pairs_file(self, tmp_path, capsys, monkeypatch):
        """The pairs file is written once, after every pair is encoded: a
        failure mid-encode leaves the previous file whole and no tmp litter."""
        import repro.dpo.dataset as dataset
        from repro.serving.cli import main

        jsonl, _ = self._pairs_workload(tmp_path)
        pairs_path = tmp_path / "pairs.jsonl"
        argv = [str(jsonl), "-o", str(tmp_path / "out.jsonl"), "--pairs-output", str(pairs_path)]
        assert main(argv) == 0
        previous = pairs_path.read_bytes()
        assert previous.count(b"\n") == 2

        real_encode = dataset.encode_preference_pair
        calls = []

        def encode_then_fail(pair, tokenizer, **kwargs):
            calls.append(pair)
            if len(calls) == 2:  # the first pair is already encoded
                raise OSError("tokenizer store unavailable")
            return real_encode(pair, tokenizer, **kwargs)

        monkeypatch.setattr(dataset, "encode_preference_pair", encode_then_fail)
        with pytest.raises(OSError, match="tokenizer store"):
            main(argv)
        assert pairs_path.read_bytes() == previous
        assert list(tmp_path.glob("pairs.jsonl.tmp.*")) == []

    def test_pairs_output_covers_off_catalogue_tasks(self, tmp_path, capsys):
        """Records scored via an explicit scenario still group into pairs,
        with a prompt synthesised from the task name."""
        import json

        from repro.dpo import read_encoded_pairs
        from repro.serving.cli import main

        jsonl = tmp_path / "in.jsonl"
        jsonl.write_text(
            json.dumps({"task": "custom_merge", "scenario": "highway_merge",
                        "response": "1. Go straight onto the highway."}) + "\n"
            + json.dumps({"task": "custom_merge", "scenario": "highway_merge",
                          "response": "1. Stop."}) + "\n"
        )
        pairs_path = tmp_path / "pairs.jsonl"
        assert main([str(jsonl), "--core-specs", "-o", str(tmp_path / "out.jsonl"),
                     "--pairs-output", str(pairs_path)]) == 0
        encoded = read_encoded_pairs(pairs_path)
        assert all(pair.task == "custom_merge" for pair in encoded)


class TestJobLevelApi:
    def test_score_batch_mixed_scenarios(self):
        tasks = [task_by_name("turn_right_traffic_light"), task_by_name("enter_roundabout")]
        jobs = []
        for task in tasks:
            for response in response_templates(task.name, "compliant")[:2]:
                jobs.append(FeedbackJob(task=task.name, scenario=task.scenario, response=response))
        service = FeedbackService(core_specifications(), feedback=FeedbackConfig())
        scores = service.score_batch(jobs)
        assert len(scores) == len(jobs)
        reference = FeedbackService(
            core_specifications(), feedback=FeedbackConfig(), config=ServingConfig(enabled=False)
        )
        assert scores == reference.score_batch(jobs)

    @pytest.mark.parametrize(
        "feedback",
        [FeedbackConfig(), FeedbackConfig(use_empirical=True)],
        ids=["formal", "empirical"],
    )
    def test_cached_scores_match_the_reference(self, feedback):
        """Templates from three scenarios with duplicates, as sampling
        produces them: the cached path scores them as the uncached one does."""
        jobs = []
        for name in ("turn_right_traffic_light", "enter_roundabout", "merge_onto_highway"):
            task = task_by_name(name)
            responses = list(response_templates(name, "compliant"))
            responses += list(response_templates(name, "flawed"))[:2]
            responses.append(responses[0])  # exact duplicate
            jobs += [FeedbackJob(task=name, scenario=task.scenario, response=r) for r in responses]
        if feedback.use_empirical:
            jobs = jobs[:8]  # simulator scoring is slower; a smaller batch suffices
        reference = FeedbackService(
            core_specifications(), feedback=feedback, seed=0, config=ServingConfig(enabled=False)
        ).score_batch(jobs)
        with FeedbackService(core_specifications(), feedback=feedback, seed=0) as service:
            assert service.score_batch(jobs) == reference


def _jobs_in_two_scenarios() -> list:
    jobs = []
    for name in ("turn_right_traffic_light", "enter_roundabout"):
        task = task_by_name(name)
        responses = list(response_templates(name, "compliant"))[:2]
        responses += list(response_templates(name, "flawed"))[:2]
        jobs += [FeedbackJob(task=name, scenario=task.scenario, response=r) for r in responses]
    return jobs


class _CountingBuilder:
    """The catalogue's model builder, recording each scenario it builds."""

    def __init__(self):
        self.built = []

    def __call__(self, scenario: str):
        from repro.driving.scenarios.universal import scenario_model

        self.built.append(scenario)
        return scenario_model(scenario)


class TestResponseScorer:
    """The one scorer every miss goes through, inline and in order."""

    def test_run_serial_scores_in_submission_order(self):
        scorer = ResponseScorer(core_specifications())
        jobs = _jobs_in_two_scenarios()
        expected = [scorer.score(job.task, job.scenario, job.response) for job in jobs]
        assert len(set(expected)) > 1, "every job scores alike, so no order would show"
        assert run_serial(scorer, jobs) == expected
        assert run_serial(scorer, jobs[::-1]) == expected[::-1]

    def test_each_scenario_model_is_built_once(self):
        builder = _CountingBuilder()
        scorer = ResponseScorer(core_specifications(), model_builder=builder)
        jobs = _jobs_in_two_scenarios()
        run_serial(scorer, jobs)
        run_serial(scorer, jobs)
        assert builder.built == ["traffic_light_intersection", "roundabout"]

    @pytest.mark.parametrize("use_empirical", [False, True], ids=["formal", "empirical"])
    def test_prepare_builds_only_what_the_mode_scores_with(self, use_empirical):
        builder = _CountingBuilder()
        scorer = ResponseScorer(core_specifications(), use_empirical=use_empirical, model_builder=builder)
        scenario = task_by_name("enter_roundabout").scenario
        scorer.prepare(scenario)
        scorer.prepare(scenario)
        if use_empirical:
            assert builder.built == []
            assert list(scorer._evaluators) == [scenario]
        else:
            assert builder.built == [scenario]
            assert scorer._evaluators == {}

    def test_service_scores_misses_with_its_model_builder(self, right_turn_task, batch_responses):
        builder = _CountingBuilder()
        with FeedbackService(core_specifications(), model_builder=builder) as service:
            first = service.score_responses(right_turn_task, batch_responses)
            second = service.score_responses(right_turn_task, batch_responses[::-1])
        reference = FeedbackService(core_specifications(), config=ServingConfig(enabled=False))
        assert first == reference.score_responses(right_turn_task, batch_responses)
        assert second == first[::-1]
        assert builder.built == [right_turn_task.scenario]
