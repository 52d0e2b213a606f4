"""Timing helpers: record_timing and the @timed decorator."""

import pytest

from repro.obs import NULL_TELEMETRY, TelemetryRegistry, record_timing, timed


class TestRecordTiming:
    def test_records_into_registry(self):
        reg = TelemetryRegistry()
        with record_timing(reg, "block"):
            sum(range(100))
        assert reg.timer_stats("block").count == 1

    def test_none_is_noop(self):
        with record_timing(None, "block"):
            pass  # must not raise nor allocate a registry

    def test_records_even_when_body_raises(self):
        reg = TelemetryRegistry()
        with pytest.raises(RuntimeError):
            with record_timing(reg, "boom"):
                raise RuntimeError("x")
        assert reg.timer_stats("boom").count == 1


class TestTimedDecorator:
    class Instrumented:
        def __init__(self, telemetry=None):
            self.telemetry = telemetry
            self.calls = 0

        @timed("work")
        def work(self, value):
            self.calls += 1
            return value * 2

    def test_records_per_call(self):
        reg = TelemetryRegistry()
        obj = self.Instrumented(reg)
        assert obj.work(3) == 6
        assert obj.work(4) == 8
        assert reg.timer_stats("work").count == 2
        assert obj.calls == 2

    def test_without_telemetry_attribute(self):
        class Bare:
            @timed("w")
            def w(self):
                return 42

        assert Bare().w() == 42

    def test_null_telemetry_passthrough(self):
        obj = self.Instrumented(NULL_TELEMETRY)
        assert obj.work(1) == 2
