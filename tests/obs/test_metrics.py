"""MetricsRegistry tests: gauges, providers, and the run snapshot."""

from repro.obs.metrics import Gauge, MetricsRegistry


class TestInstruments:
    def test_gauge_keeps_the_last_value(self):
        gauge = Gauge("depth")
        assert gauge.value == 0.0
        gauge.set(3)
        gauge.set(2)
        assert gauge.value == 2.0


class TestRegistry:
    def test_instruments_are_created_once_per_name(self):
        registry = MetricsRegistry()
        assert registry.gauge("g") is registry.gauge("g")

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.gauge("depth").set(2)
        registry.register_provider("serving", lambda: {"hit_rate": 1.0})
        snapshot = registry.snapshot()
        assert snapshot == {"gauges": {"depth": 2.0}, "serving": {"hit_rate": 1.0}}

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
