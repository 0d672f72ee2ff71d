"""Tracer unit tests: nesting, the null path, sinks, and shard merging."""

import json
import threading

import pytest

from repro.obs import tracer as obs
from repro.obs.tracer import CounterSample, NullTracer, Span, Tracer


class TestNullPath:
    def test_default_tracer_is_null(self):
        assert isinstance(obs.current_tracer(), NullTracer)
        assert not obs.tracing_enabled()

    def test_null_span_is_a_shared_noop_context_manager(self):
        first = obs.span("anything", category="modelcheck", spec="phi_1")
        second = obs.span("else")
        assert first is second  # one shared handle, zero allocation per span
        with first as handle:
            assert handle is first

    def test_null_counter_is_a_noop(self):
        obs.counter("queue", 3)  # nothing to assert beyond "does not raise"

    def test_install_and_uninstall_swap_the_global(self):
        tracer = Tracer()
        assert obs.install_tracer(tracer) is tracer
        assert obs.current_tracer() is tracer
        assert obs.tracing_enabled()
        obs.uninstall_tracer()
        assert isinstance(obs.current_tracer(), NullTracer)


class TestNesting:
    def test_child_records_parent_and_root_has_none(self):
        tracer = obs.install_tracer(Tracer())
        with obs.span("outer", category="pipeline"):
            with obs.span("inner", category="modelcheck", spec="phi_2"):
                pass
        inner, outer = tracer.spans()  # inner closes (and lands) first
        assert inner.name == "inner" and outer.name == "outer"
        assert outer.parent_id is None
        assert inner.parent_id == outer.span_id
        assert inner.attributes == {"spec": "phi_2"}

    def test_sibling_spans_share_a_parent(self):
        tracer = obs.install_tracer(Tracer())
        with obs.span("parent"):
            with obs.span("a"):
                pass
            with obs.span("b"):
                pass
        a, b, parent = tracer.spans()
        assert a.parent_id == parent.span_id
        assert b.parent_id == parent.span_id
        assert a.span_id != b.span_id

    def test_nested_span_timing_is_contained_in_parent(self):
        tracer = obs.install_tracer(Tracer())
        with obs.span("outer"):
            with obs.span("inner"):
                pass
        inner, outer = tracer.spans()
        assert outer.start_ns <= inner.start_ns
        assert inner.start_ns + inner.duration_ns <= outer.start_ns + outer.duration_ns
        assert inner.duration_seconds >= 0.0

    def test_threads_nest_independently(self):
        tracer = obs.install_tracer(Tracer())
        ready = threading.Barrier(2)

        def worker():
            ready.wait()
            with obs.span("thread_root"):
                pass

        with obs.span("main_root"):
            thread = threading.Thread(target=worker)
            thread.start()
            ready.wait()
            thread.join()
        roots = [s for s in tracer.spans() if s.name == "thread_root"]
        assert roots and roots[0].parent_id is None  # not a child of main_root


class TestRecords:
    def test_span_round_trips_through_its_record(self):
        span = Span(
            name="mc.check", category="modelcheck", start_ns=10, duration_ns=5,
            pid=1, tid=2, span_id=3, parent_id=None, attributes={"spec": "phi_9"},
        )
        assert Span.from_record(span.to_record()) == span
        assert span.to_record()["kind"] == "span"

    def test_counter_round_trips_through_its_record(self):
        sample = CounterSample(name="depth", value=4.0, timestamp_ns=9, pid=1, tid=2)
        assert CounterSample.from_record(sample.to_record()) == sample
        assert sample.to_record()["kind"] == "counter"


class TestSinks:
    def test_jsonl_sink_flushes_every_record(self, tmp_path):
        path = tmp_path / "shard.jsonl"
        tracer = Tracer(jsonl_path=path)
        with tracer.span("one", category="modelcheck", spec="phi_1"):
            pass
        tracer.counter("depth", 2)
        # Flushed per record: readable before close().
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [line["kind"] for line in lines] == ["span", "counter"]
        tracer.close()
        tracer.close()  # idempotent

    def test_shard_merge_combines_per_pid_files(self, tmp_path):
        shard_dir = tmp_path / "shards"
        parent = Tracer(shard_dir=shard_dir)
        for fake_pid in (101, 102):
            worker = Tracer(jsonl_path=shard_dir / f"pid-{fake_pid}.jsonl")
            with worker.span("mc.check", category="modelcheck", spec=f"phi_{fake_pid}"):
                pass
            worker.counter("worker.jobs", fake_pid)
            worker.close()
        spans, counters = parent.read_shards()
        assert {s.attributes["spec"] for s in spans} == {"phi_101", "phi_102"}
        assert {c.value for c in counters} == {101.0, 102.0}
        # Non-destructive: a second read sees the same shards.
        again, _ = parent.read_shards()
        assert len(again) == len(spans)

    def test_shard_merge_tolerates_torn_lines(self, tmp_path):
        shard_dir = tmp_path / "shards"
        shard_dir.mkdir()
        good = Span(
            name="mc.product", category="modelcheck", start_ns=1, duration_ns=1,
            pid=7, tid=7, span_id=1,
        )
        (shard_dir / "pid-7.jsonl").write_text(
            json.dumps(good.to_record()) + "\n" + '{"kind": "span", "name": "tor'
        )
        spans, counters = Tracer(shard_dir=shard_dir).read_shards()
        assert [s.name for s in spans] == ["mc.product"]
        assert counters == []

    def test_all_spans_is_local_plus_shards(self, tmp_path):
        shard_dir = tmp_path / "shards"
        parent = Tracer(shard_dir=shard_dir)
        with parent.span("local"):
            pass
        worker = Tracer(jsonl_path=shard_dir / "pid-9.jsonl")
        with worker.span("remote"):
            pass
        worker.close()
        assert {s.name for s in parent.all_spans()} == {"local", "remote"}

    def test_for_trace_file_places_shards_next_to_the_trace(self, tmp_path):
        tracer = Tracer.for_trace_file(tmp_path / "run.trace.json")
        assert tracer.shard_dir == tmp_path / "run.trace.json.shards"
        assert tracer.shard_dir.is_dir()

    def test_read_shards_without_shard_dir_is_empty(self):
        assert Tracer().read_shards() == ([], [])
