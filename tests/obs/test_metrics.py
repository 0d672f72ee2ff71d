"""MetricsRegistry tests: providers and the run snapshot."""

import subprocess
import sys

from repro.obs.metrics import MetricsRegistry, process_usage_provider

#: Pages a touched 64 MiB buffer faults in, at 4 KiB a page.
TOUCHED_PAGES = (64 << 20) // 4096


class TestRegistry:
    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.register_provider("serving", lambda: {"hit_rate": 1.0})
        snapshot = registry.snapshot()
        assert snapshot == {"serving": {"hit_rate": 1.0}}

    def test_reregistering_a_provider_replaces_it(self):
        registry = MetricsRegistry()
        registry.register_provider("stream", lambda: {"old": True})
        registry.register_provider("stream", lambda: {"new": True})
        assert registry.snapshot()["stream"] == {"new": True}

    def test_failing_provider_is_contained(self):
        registry = MetricsRegistry()

        def broken():
            raise RuntimeError("boom")

        registry.register_provider("broken", broken)
        registry.register_provider("fine", lambda: {"ok": 1})
        snapshot = registry.snapshot()
        assert snapshot["broken"] == {"error": "RuntimeError: boom"}
        assert snapshot["fine"] == {"ok": 1}


class TestProcessUsage:
    def test_counts_the_faults_this_process_takes_after_it_is_built(self):
        usage = process_usage_provider()
        first = usage()["self"]
        buffer = bytearray(64 << 20)
        buffer[::4096] = b"x" * len(buffer[::4096])  # touch every page
        second = usage()["self"]
        del buffer
        assert 0 <= first["minor_faults"] < TOUCHED_PAGES
        assert second["minor_faults"] - first["minor_faults"] >= TOUCHED_PAGES
        assert second["peak_rss_mb"] >= 64

    def test_counts_a_child_once_it_is_reaped(self):
        usage = process_usage_provider()
        before = usage()["children"]
        subprocess.run([sys.executable, "-c", "b = b'x' * (64 << 20)"], check=True)
        after = usage()["children"]
        assert after["minor_faults"] - before["minor_faults"] >= TOUCHED_PAGES
        assert after["peak_rss_mb"] >= 64
