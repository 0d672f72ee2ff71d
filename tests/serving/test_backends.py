"""Backend parity and shared cross-run cache directory tests.

The contract under test: the ``"serial"`` and ``"process"`` backends return
scores bitwise-identical to the uncached reference, in submission order
(formal and empirical modes), and a ``shared_cache_dir`` warm-starts any
later run with the same feedback fingerprint while never serving stale or
partial scores.
"""

import json

import pytest

from repro.core.config import FeedbackConfig
from repro.driving import core_specifications, response_templates, task_by_name
from repro.serving import (
    BACKENDS,
    CacheDirectory,
    FeedbackCache,
    FeedbackJob,
    FeedbackService,
    ServingConfig,
    WorkerPayload,
    WorkerPool,
    feedback_fingerprint,
)


def _mixed_scenario_jobs() -> list:
    """Templates from three scenarios, with duplicates, as sampling produces."""
    jobs = []
    for name in ("turn_right_traffic_light", "enter_roundabout", "merge_onto_highway"):
        task = task_by_name(name)
        responses = list(response_templates(name, "compliant"))
        responses += list(response_templates(name, "flawed"))[:2]
        responses.append(responses[0])  # exact duplicate
        for response in responses:
            jobs.append(FeedbackJob(task=name, scenario=task.scenario, response=response))
    return jobs


def _service(backend: str, feedback: FeedbackConfig, **config_kwargs) -> FeedbackService:
    return FeedbackService(
        core_specifications(),
        feedback=feedback,
        config=ServingConfig(backend=backend, max_workers=2, **config_kwargs),
        seed=0,
    )


class TestBackendParity:
    @pytest.mark.parametrize(
        "feedback",
        [FeedbackConfig(), FeedbackConfig(use_empirical=True, empirical_traces=3)],
        ids=["formal", "empirical"],
    )
    def test_three_backends_are_bitwise_identical(self, feedback):
        jobs = _mixed_scenario_jobs()
        if feedback.use_empirical:
            jobs = jobs[:8]  # simulator scoring is slower; a smaller batch suffices
        reference = FeedbackService(
            core_specifications(), feedback=feedback, seed=0, config=ServingConfig(enabled=False)
        ).score_batch(jobs)
        for backend in BACKENDS:
            assert _service(backend, feedback).score_batch(jobs) == reference, backend

    def test_process_backend_small_batch_falls_back_to_serial(self):
        """A tiny miss batch must not pay the fork cost (and still score right)."""
        task = task_by_name("enter_roundabout")
        service = _service("process", FeedbackConfig())
        response = response_templates(task.name, "compliant")[0]
        score = service.score_response(task, response)
        reference = FeedbackService(
            core_specifications(), feedback=FeedbackConfig(), config=ServingConfig(enabled=False)
        ).score_response(task, response)
        assert score == reference

    def test_process_backend_with_custom_model_builder_downgrades_safely(self, monkeypatch):
        """A closure model builder cannot ship to workers: the service scores
        its misses on the serial loop, and the scores still match it."""
        import repro.serving.scheduler as scheduler
        from repro.driving import scenario_model

        def patched_builder(name):
            model = scenario_model(name)
            model.add_state("probe", [])
            model.add_transition(model.states[0], "probe")
            return model

        jobs = _mixed_scenario_jobs()
        patched = FeedbackService(
            core_specifications(),
            feedback=FeedbackConfig(),
            config=ServingConfig(backend="process", max_workers=2),
            model_builder=patched_builder,
        )
        reference = FeedbackService(
            core_specifications(),
            feedback=FeedbackConfig(),
            config=ServingConfig(enabled=False),
            model_builder=patched_builder,
        )
        real_run_serial = scheduler.run_serial
        serial_batches = []

        def spy_run_serial(scorer, batch):
            serial_batches.append(len(batch))
            return real_run_serial(scorer, batch)

        monkeypatch.setattr(scheduler, "run_serial", spy_run_serial)
        assert patched._payload is None
        assert patched.score_batch(jobs) == reference.score_batch(jobs)
        assert patched._pool is None, "a custom model builder must never start a worker pool"
        # One serial call for the patched service's misses, one for the
        # disabled reference.
        assert serial_batches == [patched.metrics.cache_misses, len(jobs)]

    def test_pipeline_service_keeps_process_backend(self):
        """The pipeline's service is built from its feedback config alone, so
        worker processes can rebuild its scorer: the process backend stays on."""
        import dataclasses

        from repro.core import DPOAFPipeline
        from repro.core.config import quick_pipeline_config

        config = dataclasses.replace(
            quick_pipeline_config(seed=0), serving=ServingConfig(backend="process", max_workers=2)
        )
        with DPOAFPipeline(config, specifications=core_specifications()) as pipeline:
            assert pipeline.serving._payload is not None

    def test_worker_pool_preserves_submission_order(self):
        """Chunked dispatch must concatenate chunk results in submission order."""
        jobs = _mixed_scenario_jobs()
        payload = WorkerPayload.from_feedback(core_specifications(), FeedbackConfig(), seed=0)
        fallback = payload.build_scorer()
        with WorkerPool(payload, max_workers=2, min_batch=2) as pool:
            scores = pool.run(jobs, fallback=fallback)
        assert scores == [fallback.score(j.task, j.scenario, j.response) for j in jobs]

    def test_payload_round_trips_through_pickle(self):
        import pickle

        payload = WorkerPayload.from_feedback(
            core_specifications(), FeedbackConfig(use_empirical=True), seed=7
        )
        clone = pickle.loads(pickle.dumps(payload))
        assert clone == payload
        scorer = clone.build_scorer()
        assert scorer.use_empirical and scorer.seed == 7


class TestBrokenPoolFallback:
    """A pool that cannot fork its workers, or whose workers die, marks itself
    broken and scores every batch from then on with the serial loop."""

    @pytest.mark.parametrize("failure", ["workers_die", "fork_refused"])
    def test_broken_pool_scores_serially_and_never_rebuilds(self, monkeypatch, failure):
        from concurrent.futures import BrokenExecutor

        import repro.serving.backends as backends

        constructed = []

        class FailingExecutor:
            def __init__(self, **kwargs):
                constructed.append(kwargs)
                if failure == "fork_refused":
                    raise OSError("fork refused")

            def map(self, fn, chunks):
                raise BrokenExecutor("a worker died")

            def shutdown(self, wait=True):
                pass

        monkeypatch.setattr(backends, "ProcessPoolExecutor", FailingExecutor)
        payload = WorkerPayload.from_feedback(core_specifications(), FeedbackConfig(), seed=0)
        fallback = payload.build_scorer()
        jobs = _mixed_scenario_jobs()
        first, second = jobs[:8], jobs[8:]
        with WorkerPool(payload, max_workers=2, min_batch=2) as pool:
            assert pool.run(first, fallback=fallback) == backends.run_serial(fallback, first)
            assert pool._broken
            assert pool.run(second, fallback=fallback) == backends.run_serial(fallback, second)
            assert len(constructed) == 1
            assert pool.starts == (1 if failure == "workers_die" else 0)


class TestCacheDirectory:
    def _fingerprint(self, feedback=None, seed=0):
        return feedback_fingerprint(feedback or FeedbackConfig(), core_specifications(), seed=seed)

    def test_store_load_roundtrip_and_merge(self, tmp_path):
        directory = CacheDirectory(tmp_path)
        fp = self._fingerprint()
        first = FeedbackCache(); first.put("a", 1)
        directory.store(fp, first)
        second = FeedbackCache(); second.put("b", 2)
        directory.store(fp, second)
        loaded = directory.load(fp)
        assert loaded.get("a") == 1 and loaded.get("b") == 2

    def test_distinct_fingerprints_use_distinct_shards(self, tmp_path):
        directory = CacheDirectory(tmp_path)
        formal, empirical = self._fingerprint(), self._fingerprint(FeedbackConfig(use_empirical=True))
        cache = FeedbackCache(); cache.put("k", 3)
        directory.store(formal, cache)
        assert directory.shard_path(formal) != directory.shard_path(empirical)
        assert len(directory.load(empirical)) == 0

    def test_corrupt_shard_loads_empty(self, tmp_path):
        directory = CacheDirectory(tmp_path)
        fp = self._fingerprint()
        directory.shard_path(fp).write_text("garbage{{{")
        assert len(directory.load(fp)) == 0
        # And storing over the corrupt shard repairs it.
        cache = FeedbackCache(); cache.put("k", 4)
        directory.store(fp, cache)
        assert directory.load(fp).get("k") == 4

    def test_fingerprint_mismatch_inside_shard_is_ignored(self, tmp_path):
        """A hand-edited (or prefix-colliding) shard must never serve scores."""
        directory = CacheDirectory(tmp_path)
        fp = self._fingerprint()
        directory.shard_path(fp).write_text(
            json.dumps({"schema": 1, "fingerprint": "someone else's", "entries": [["k", 9]]})
        )
        assert len(directory.load(fp)) == 0

    def test_partial_tmp_files_are_never_read(self, tmp_path):
        directory = CacheDirectory(tmp_path)
        fp = self._fingerprint()
        cache = FeedbackCache(); cache.put("k", 5)
        directory.store(fp, cache)
        shard = directory.shard_path(fp)
        (shard.parent / f"{shard.name}.tmp.12345").write_text('{"truncated": ')
        assert directory.load(fp).get("k") == 5

    def test_atomic_save_survives_unserializable_payload(self, tmp_path):
        """A failing store must leave the previous shard intact."""
        directory = CacheDirectory(tmp_path)
        fp = self._fingerprint()
        good = FeedbackCache(); good.put("k", 6)
        directory.store(fp, good)
        bad = FeedbackCache(); bad.put("k", object())  # not JSON-serializable
        with pytest.raises(TypeError):
            directory.store(fp, bad)
        assert directory.load(fp).get("k") == 6
        assert list(tmp_path.glob("*.tmp.*")) == []


class TestSharedCacheAcrossRuns:
    def test_two_runs_warm_start_each_other(self, tmp_path):
        jobs = _mixed_scenario_jobs()
        config = ServingConfig(shared_cache_dir=str(tmp_path / "shared"))
        first = FeedbackService(core_specifications(), feedback=FeedbackConfig(), config=config)
        cold_scores = first.score_batch(jobs)
        assert first.metrics.cache_misses > 0 and first.flush()

        second = FeedbackService(core_specifications(), feedback=FeedbackConfig(), config=config)
        assert second.metrics.warm_start_entries > 0
        assert second.score_batch(jobs) == cold_scores
        assert second.metrics.cache_misses == 0 and second.metrics.hit_rate > 0

    def test_warm_start_counts_only_retained_entries(self, tmp_path):
        """A shard larger than the cache bound must not claim every adopted
        key as warm-started — `merge` reports what the LRU actually kept."""
        jobs = _mixed_scenario_jobs()
        shared = str(tmp_path / "shared")
        first = FeedbackService(
            core_specifications(), feedback=FeedbackConfig(),
            config=ServingConfig(shared_cache_dir=shared),
        )
        first.score_batch(jobs)
        first.flush()
        shard_entries = len(first.cache)
        assert shard_entries > 2
        small = FeedbackService(
            core_specifications(), feedback=FeedbackConfig(),
            config=ServingConfig(shared_cache_dir=shared, cache_size=2),
        )
        assert small.metrics.warm_start_entries == 2 == len(small.cache)

    def test_changed_fingerprint_never_reuses_scores(self, tmp_path):
        jobs = _mixed_scenario_jobs()[:4]
        shared = str(tmp_path / "shared")
        formal = FeedbackService(
            core_specifications(), feedback=FeedbackConfig(), config=ServingConfig(shared_cache_dir=shared)
        )
        formal.score_batch(jobs)
        formal.flush()
        empirical = FeedbackService(
            core_specifications(),
            feedback=FeedbackConfig(use_empirical=True, empirical_traces=3),
            config=ServingConfig(shared_cache_dir=shared),
        )
        assert empirical.metrics.warm_start_entries == 0
        empirical.score_batch(jobs)
        assert empirical.metrics.cache_hits == 0

    def test_corrupted_shard_forces_recomputation_not_failure(self, tmp_path):
        jobs = _mixed_scenario_jobs()[:4]
        shared = tmp_path / "shared"
        config = ServingConfig(shared_cache_dir=str(shared))
        first = FeedbackService(core_specifications(), feedback=FeedbackConfig(), config=config)
        scores = first.score_batch(jobs)
        first.flush()
        for shard in shared.glob("*.json"):
            shard.write_text('{"schema": 1, "entries": [["trunc')
        second = FeedbackService(core_specifications(), feedback=FeedbackConfig(), config=config)
        assert second.metrics.warm_start_entries == 0
        assert second.score_batch(jobs) == scores
        assert second.metrics.cache_hits == 0

    def test_pipeline_config_plumbs_shared_cache_dir(self, tmp_path):
        from repro.core.config import quick_pipeline_config

        config = quick_pipeline_config(seed=0, shared_cache_dir=str(tmp_path / "shared"))
        assert config.serving.shared_cache_dir == str(tmp_path / "shared")
