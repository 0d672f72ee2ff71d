"""Chrome trace-event export tests: validity, round trips, and the report CLI."""

import json
import os
import platform

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
    hottest_specs,
    per_spec_profile,
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

    def test_export_merges_worker_shards(self, tmp_path):
        tracer = Tracer(shard_dir=tmp_path / "shards")
        with tracer.span("parent_work", category="serving"):
            pass
        worker = Tracer(jsonl_path=tmp_path / "shards" / "pid-55.jsonl")
        with worker.span("mc.check", category="modelcheck", spec="phi_3"):
            pass
        worker.close()
        document = load_chrome_trace(write_chrome_trace(tmp_path / "out.json", tracer))
        names = {e["name"] for e in document["traceEvents"]}
        assert names == {"parent_work", "mc.check"}

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


class TestReport:
    def test_per_spec_profile_aggregates_phases(self):
        spans = [
            make_span("mc.construct", start_ns=0, duration_ns=2_000_000_000, spec="phi_1"),
            make_span("mc.product", start_ns=0, duration_ns=1_000_000_000, spec="phi_1"),
            make_span("mc.check", start_ns=0, duration_ns=500_000_000, spec="phi_1"),
            make_span("mc.check", start_ns=0, duration_ns=4_000_000_000, spec="phi_2"),
            make_span("unrelated", start_ns=0, category="pipeline"),
        ]
        profile = per_spec_profile(spans)
        assert profile["phi_1"]["construct"] == pytest.approx(2.0)
        assert profile["phi_1"]["total"] == pytest.approx(3.5)
        assert profile["phi_1"]["checks"] == 1
        assert profile["phi_2"]["total"] == pytest.approx(4.0)

    def test_hottest_specs_ranks_by_total_with_stable_ties(self):
        profile = {
            "phi_b": {"total": 1.0}, "phi_a": {"total": 1.0}, "phi_hot": {"total": 9.0},
        }
        ranked = hottest_specs(profile, k=2)
        assert [name for name, _ in ranked] == ["phi_hot", "phi_a"]

    def test_stage_breakdown_covers_stage_categories_only(self):
        spans = [
            make_span("pipeline.train", start_ns=0, duration_ns=10**9, category="pipeline"),
            make_span("mc.check", start_ns=0, duration_ns=10**9, spec="x"),
        ]
        breakdown = stage_breakdown(spans)
        assert list(breakdown) == ["pipeline.train"]
        assert breakdown["pipeline.train"]["count"] == 1

    def test_serving_summary_matches_the_cli_wording(self):
        snapshot = {
            "jobs": 10, "unique_jobs": 8, "total_seconds": 2.0, "throughput": 5.0,
            "hit_rate": 1.0, "dedup_rate": 0.2,
        }
        line = format_serving_summary(snapshot)
        assert "scored 10 responses (8 unique)" in line
        assert "hit rate 100%" in line
        assert line.endswith("dedup rate 20%")

    def test_report_names_the_hottest_specs(self):
        spans = [
            make_span("mc.check", start_ns=0, duration_ns=3 * 10**9, spec="phi_slow"),
            make_span("mc.check", start_ns=0, duration_ns=1 * 10**9, spec="phi_fast"),
        ]
        text = format_report(spans, top=1)
        assert "phi_slow" in text
        assert "phi_fast" not in text  # outside the top-1 cut
        assert "hottest specs (top 1 of 2)" in text

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
        assert "phi_6" in text
        assert "scored 4 responses (3 unique)" in text
        assert text.count("== process ==") == 1
        assert text.splitlines()[-1] == format_process_summary(process)

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
        assert "phi_11" in capsys.readouterr().out

    def test_missing_file_is_a_clean_error(self, tmp_path, capsys):
        assert trace_main(["report", str(tmp_path / "absent.json")]) == 2
        assert "repro-trace:" in capsys.readouterr().err

    def test_top_flag_limits_the_ranking(self, tmp_path, capsys):
        tracer = Tracer()
        for index in range(3):
            with tracer.span("mc.check", category="modelcheck", spec=f"phi_{index}"):
                pass
        path = write_chrome_trace(tmp_path / "run.json", tracer)
        assert trace_main(["report", str(path), "--top", "2"]) == 0
        assert "top 2 of 3" in capsys.readouterr().out
