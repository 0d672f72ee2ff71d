"""MetricsRegistry tests: providers and the run snapshot."""

from repro.obs.metrics import MetricsRegistry


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
