"""Chrome trace-event export tests: validity, round trips, and the report CLI."""

import json
import os
import platform
from dataclasses import replace

import numpy
import pytest

from repro.obs import tracer as obs
from repro.obs.cli import main as trace_main
from repro.obs.export import (
    BLAS_THREAD_ENV,
    TRACE_SCHEMA,
    chrome_trace_events,
    counters_from_trace,
    load_chrome_trace,
    spans_from_trace,
    write_chrome_trace,
)
from repro.obs.report import (
    format_process_summary,
    format_report,
    format_serving_summary,
    report_from_trace,
    stage_breakdown,
)
from repro.obs.tracer import CounterSample, Span, Tracer


def make_span(name, *, start_ns, duration_ns=1000, category="modelcheck", span_id=1, **attrs):
    return Span(
        name=name, category=category, start_ns=start_ns, duration_ns=duration_ns,
        pid=1, tid=1, span_id=span_id, attributes=attrs,
    )


class TestChromeEvents:
    def test_events_are_sorted_and_rebased(self):
        spans = [
            make_span("late", start_ns=5_000_000, span_id=2),
            make_span("early", start_ns=1_000_000, span_id=1),
        ]
        events = chrome_trace_events(spans)
        assert [e["name"] for e in events] == ["early", "late"]
        timestamps = [e["ts"] for e in events]
        assert timestamps == sorted(timestamps)
        assert timestamps[0] == 0.0  # rebased to the earliest event

    def test_zero_duration_span_gets_a_visible_width(self):
        (event,) = chrome_trace_events([make_span("instant", start_ns=0, duration_ns=0)])
        assert event["ph"] == "X"
        assert event["dur"] >= 1.0

    def test_counter_samples_become_counter_events(self):
        sample = CounterSample(name="depth", value=3.0, timestamp_ns=2_000, pid=1, tid=1)
        events = chrome_trace_events([], [sample])
        assert events == [{"name": "depth", "ph": "C", "ts": 0.0, "pid": 1, "args": {"value": 3.0}}]

    def test_span_identity_travels_in_args(self):
        (event,) = chrome_trace_events([make_span("mc.check", start_ns=0, spec="phi_7")])
        assert event["args"]["span_id"] == 1
        assert event["args"]["spec"] == "phi_7"


class TestWriteAndLoad:
    def test_written_trace_is_loadable_json_with_monotonic_timestamps(self, tmp_path):
        tracer = Tracer()
        with tracer.span("outer", category="pipeline"):
            with tracer.span("inner", category="modelcheck", spec="phi_1"):
                pass
        tracer.counter("depth", 1)
        path = write_chrome_trace(tmp_path / "run.trace.json", tracer, metrics={"serving": {}})
        document = load_chrome_trace(path)
        assert document["displayTimeUnit"] == "ms"
        assert document["otherData"]["schema"] == TRACE_SCHEMA
        host = document["otherData"]["host"]
        assert set(host) == {"nproc", "python", "numpy", "blas", "blas_version", "env"}
        assert host["nproc"] >= 1
        assert host["python"] == platform.python_version()
        assert host["numpy"] == numpy.__version__
        assert set(host["env"]) == set(BLAS_THREAD_ENV)
        assert all(host["env"][name] == os.environ.get(name) for name in BLAS_THREAD_ENV)
        timestamps = [e["ts"] for e in document["traceEvents"]]
        assert timestamps == sorted(timestamps)

    def test_export_includes_adopted_worker_spans(self, tmp_path):
        tracer = Tracer()
        with tracer.span("parent_work", category="serving"):
            worker = Tracer()
            with worker.span("mc.check", category="modelcheck", spec="phi_3"):
                pass
            tracer.adopt([replace(span, pid=span.pid + 1) for span in worker.spans()])
        document = load_chrome_trace(write_chrome_trace(tmp_path / "out.json", tracer))
        events = {event["name"]: event for event in document["traceEvents"]}
        assert set(events) == {"parent_work", "mc.check"}
        assert events["mc.check"]["args"]["parent_id"] == events["parent_work"]["args"]["span_id"]
        assert events["mc.check"]["pid"] == events["parent_work"]["pid"] + 1

    def test_export_leaves_only_the_trace_file(self, tmp_path):
        tracer = Tracer()
        with tracer.span("serving.score_batch", category="serving", jobs=3):
            pass
        write_chrome_trace(tmp_path / "run.trace.json", tracer)
        assert sorted(path.name for path in tmp_path.iterdir()) == ["run.trace.json"]

    def test_load_rejects_invalid_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json{")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_chrome_trace(bad)

    def test_load_rejects_non_trace_documents(self, tmp_path):
        bad = tmp_path / "other.json"
        bad.write_text(json.dumps({"foo": 1}))
        with pytest.raises(ValueError, match="traceEvents"):
            load_chrome_trace(bad)

    def test_spans_round_trip_through_the_file(self, tmp_path):
        tracer = Tracer()
        with tracer.span("mc.product", category="modelcheck", spec="phi_4"):
            pass
        document = load_chrome_trace(write_chrome_trace(tmp_path / "t.json", tracer))
        (span,) = spans_from_trace(document)
        assert span.name == "mc.product"
        assert span.category == "modelcheck"
        assert span.attributes == {"spec": "phi_4"}
        assert counters_from_trace(document) == []

    def test_span_identity_round_trips_through_the_file(self, tmp_path):
        tracer = Tracer()
        with tracer.span("outer", category="pipeline"):
            with tracer.span("inner", category="modelcheck", spec="phi_2"):
                pass
        document = load_chrome_trace(write_chrome_trace(tmp_path / "t.json", tracer))
        loaded = {span.name: span for span in spans_from_trace(document)}
        for span in tracer.spans():
            again = loaded[span.name]
            assert (again.span_id, again.parent_id) == (span.span_id, span.parent_id)
            assert (again.pid, again.tid) == (span.pid, span.tid)
            assert again.attributes == span.attributes
        assert loaded["inner"].parent_id == loaded["outer"].span_id

    def test_counters_round_trip_through_the_file(self, tmp_path):
        tracer = Tracer()
        tracer.counter("dispatcher.queue_depth", 4)
        tracer.counter("dispatcher.queue_depth", 2)
        document = load_chrome_trace(write_chrome_trace(tmp_path / "t.json", tracer))
        samples = counters_from_trace(document)
        assert [(c.name, c.value) for c in samples] == [
            ("dispatcher.queue_depth", 4.0),
            ("dispatcher.queue_depth", 2.0),
        ]
        assert {c.pid for c in samples} == {tracer._pid}
        assert samples[0].timestamp_ns == 0  # rebased to the earliest event


#: A trace as the model checker wrote it before its zero-length spans were
#: deleted: ``mc.check_cached``, ``mc.construct_cached`` and the
#: ``mc.memo.*`` counters (events cut from a traced scoring call).
EARLIER_TRACE = {
    "traceEvents": [
        {"name": "serving.score_batch", "cat": "serving", "ph": "X", "ts": 0.0, "dur": 3338.833,
         "pid": 14548, "tid": 1, "args": {"span_id": 1, "parent_id": None, "jobs": 2}},
        {"name": "mc.construct", "cat": "modelcheck", "ph": "X", "ts": 124.818, "dur": 793.231,
         "pid": 14548, "tid": 1, "args": {"span_id": 2, "parent_id": 1, "spec": "phi_1"}},
        {"name": "mc.memo.hits", "ph": "C", "ts": 956.448, "pid": 14548, "args": {"value": 0}},
        {"name": "mc.memo.misses", "ph": "C", "ts": 967.05, "pid": 14548, "args": {"value": 1}},
        {"name": "mc.build_model", "cat": "modelcheck", "ph": "X", "ts": 1388.922, "dur": 528.976,
         "pid": 14548, "tid": 1, "args": {"span_id": 3, "parent_id": 1, "controller": "turn_left_unprotected"}},
        {"name": "mc.product", "cat": "modelcheck", "ph": "X", "ts": 1947.768, "dur": 268.862,
         "pid": 14548, "tid": 1, "args": {"span_id": 4, "parent_id": 1, "rules": 1}},
        {"name": "mc.check", "cat": "modelcheck", "ph": "X", "ts": 2241.85, "dur": 1.0,
         "pid": 14548, "tid": 1, "args": {"span_id": 5, "parent_id": 1, "spec": "phi_1"}},
        {"name": "mc.check_cached", "cat": "modelcheck", "ph": "X", "ts": 2385.058, "dur": 1.0,
         "pid": 14548, "tid": 1, "args": {"span_id": 6, "parent_id": 1, "spec": "phi_1"}},
        {"name": "mc.construct_cached", "cat": "modelcheck", "ph": "X", "ts": 2463.052, "dur": 1.0,
         "pid": 14548, "tid": 1, "args": {"span_id": 7, "parent_id": 1, "spec": "phi_1"}},
        {"name": "mc.memo.hits", "ph": "C", "ts": 2479.075, "pid": 14548, "args": {"value": 1}},
        {"name": "mc.memo.misses", "ph": "C", "ts": 2485.881, "pid": 14548, "args": {"value": 1}},
    ],
    "otherData": {"schema": 1, "metrics": {}},
    "displayTimeUnit": "ms",
}


class TestReport:
    def test_stage_breakdown_covers_stage_categories_only(self):
        spans = [
            make_span("pipeline.train", start_ns=0, duration_ns=10**9, category="pipeline"),
            make_span("mc.product", start_ns=0, duration_ns=10**9, rules=15),
            make_span("mc.check", start_ns=0, duration_ns=10**9, spec="x"),
            make_span("mc.check", start_ns=0, duration_ns=10**9, spec="y"),
            make_span("worker.idle", start_ns=0, duration_ns=10**9, category="run"),
        ]
        breakdown = stage_breakdown(spans)
        assert list(breakdown) == ["pipeline.train", "mc.product", "mc.check"]
        assert breakdown["pipeline.train"]["count"] == 1
        assert breakdown["mc.check"] == {"seconds": 2.0, "count": 2}

    def test_serving_summary_matches_the_cli_wording(self):
        snapshot = {
            "jobs": 10, "unique_jobs": 8, "total_seconds": 2.0, "throughput": 5.0,
            "hit_rate": 1.0, "dedup_rate": 0.2,
        }
        line = format_serving_summary(snapshot)
        assert "scored 10 responses (8 unique)" in line
        assert "hit rate 100%" in line
        assert line.endswith("dedup rate 20%")

    def test_report_ranks_checker_phases_with_the_stages(self):
        """The model checker's spans are rows of the stage table, summed by
        name over every spec and ranked by seconds with the other stages;
        no other section names a spec."""
        spans = [
            make_span("serving.score_batch", start_ns=0, duration_ns=4 * 10**9, category="serving"),
            make_span("mc.construct", start_ns=0, duration_ns=10**9, spec="phi_1"),
            make_span("mc.product", start_ns=0, duration_ns=2 * 10**9, rules=15),
            make_span("mc.check", start_ns=0, duration_ns=25 * 10**7, spec="phi_1"),
            make_span("mc.check", start_ns=0, duration_ns=25 * 10**7, spec="phi_2"),
        ]
        lines = format_report(spans).splitlines()
        assert lines[:2] == ["== stage breakdown ==", " | ".join(f"{h:>14}" for h in ("stage", "spans", "seconds"))]
        assert [[cell.strip() for cell in line.split("|")] for line in lines[2:]] == [
            ["serving.score_batch", "1", "4.0000"],
            ["mc.product", "1", "2.0000"],
            ["mc.construct", "1", "1.0000"],
            ["mc.check", "2", "0.5000"],
        ]

    def test_empty_report_is_explicit(self):
        assert "empty trace" in format_report([])

    def test_report_from_trace_round_trip(self, tmp_path):
        tracer = Tracer()
        with tracer.span("mc.construct", category="modelcheck", spec="phi_6"):
            pass
        serving = {
            "jobs": 4,
            "unique_jobs": 3,
            "total_seconds": 0.5,
            "throughput": 8.0,
            "hit_rate": 0.25,
            "dedup_rate": 0.25,
        }
        process = {
            "self": {"minor_faults": 27031, "peak_rss_mb": 75.12},
            "children": {"minor_faults": 13512, "peak_rss_mb": 56.8},
        }
        path = write_chrome_trace(tmp_path / "t.json", tracer, metrics={"serving": serving, "process": process})
        text = report_from_trace(load_chrome_trace(path))
        assert "mc.construct" in text
        assert "scored 4 responses (3 unique)" in text
        assert text.count("== process ==") == 1
        assert text.splitlines()[-1] == format_process_summary(process)
        # A trace written before the checker's zero-length spans and memo
        # counters were deleted still renders, each old span name as a row.
        path = tmp_path / "earlier.json"
        path.write_text(json.dumps(EARLIER_TRACE))
        earlier = report_from_trace(load_chrome_trace(path)).splitlines()
        assert earlier[0] == "== stage breakdown =="
        for name in ("serving.score_batch", "mc.construct", "mc.check", "mc.check_cached", "mc.construct_cached"):
            assert any(line.split("|")[0].strip() == name for line in earlier), name

    def test_process_summary_names_both_sides(self):
        line = format_process_summary(
            {
                "self": {"minor_faults": 27031, "peak_rss_mb": 75.12},
                "children": {"minor_faults": 13512, "peak_rss_mb": 56.8},
            }
        )
        assert line == (
            "self: 27,031 minor faults, peak RSS 75.1 MB; "
            "reaped children: 13,512 minor faults, peak RSS 56.8 MB"
        )


class TestCli:
    def test_report_command_prints_the_summary(self, tmp_path, capsys):
        tracer = Tracer()
        with tracer.span("mc.check", category="modelcheck", spec="phi_11"):
            pass
        path = write_chrome_trace(tmp_path / "run.json", tracer)
        assert trace_main(["report", str(path)]) == 0
        rows = [[cell.strip() for cell in line.split("|")] for line in capsys.readouterr().out.splitlines()]
        assert [row[:2] for row in rows if row[0] == "mc.check"] == [["mc.check", "1"]]

    def test_missing_file_is_a_clean_error(self, tmp_path, capsys):
        assert trace_main(["report", str(tmp_path / "absent.json")]) == 2
        assert "repro-trace:" in capsys.readouterr().err

    def test_top_flag_is_a_usage_error(self, tmp_path, capsys):
        """``--top`` cut the deleted per-spec ranking; it is refused as an
        unknown argument before the trace is read."""
        with pytest.raises(SystemExit) as exit_info:
            trace_main(["report", str(tmp_path / "absent.json"), "--top", "2"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --top 2" in capsys.readouterr().err
