"""repro.obs.metrics — registry semantics and Prometheus text rendering."""

from __future__ import annotations

import re

import pytest

from repro.obs import DEFAULT_LATENCY_BUCKETS, MetricsRegistry, get_metrics

_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^}]*\})?"
    r" (?P<value>[^ ]+)$"
)


def _parse(text):
    """Prometheus text -> {sample line name+labels: value}, checking shape."""
    samples = {}
    for line in text.splitlines():
        if not line:
            pytest.fail("blank line in exposition output")
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            continue
        match = _SAMPLE.match(line)
        assert match is not None, f"malformed sample line: {line!r}"
        samples[match.group("name") + (match.group("labels") or "")] = match.group(
            "value"
        )
    return samples


class TestCounter:
    def test_inc_and_value_per_series(self):
        counter = MetricsRegistry().counter("c_total", "help", ("outcome",))
        counter.inc(outcome="hit")
        counter.inc(2, outcome="miss")
        assert counter.value(outcome="hit") == 1
        assert counter.value(outcome="miss") == 3 - 1
        assert counter.value(outcome="dedup") == 0

    def test_negative_increment_rejected(self):
        counter = MetricsRegistry().counter("c_total")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_wrong_label_set_rejected(self):
        counter = MetricsRegistry().counter("c_total", "", ("outcome",))
        with pytest.raises(ValueError):
            counter.inc()
        with pytest.raises(ValueError):
            counter.inc(outcome="hit", extra="nope")


class TestGauge:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(5)
        gauge.inc()
        gauge.dec(2)
        assert gauge.value() == 4


class TestHistogram:
    def test_cumulative_buckets_sum_and_count(self):
        histogram = MetricsRegistry().histogram("h_seconds", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 0.7, 5.0):
            histogram.observe(value)
        assert histogram.count() == 4
        assert histogram.sum() == pytest.approx(6.25)
        samples = _parse("\n".join(histogram.render()))
        assert samples['h_seconds_bucket{le="0.1"}'] == "1"
        assert samples['h_seconds_bucket{le="1"}'] == "3"
        assert samples['h_seconds_bucket{le="+Inf"}'] == "4"
        assert samples["h_seconds_count"] == "4"

    def test_default_buckets_cover_the_latency_range(self):
        assert DEFAULT_LATENCY_BUCKETS[0] <= 0.001  # sub-ms store reads
        assert DEFAULT_LATENCY_BUCKETS[-1] >= 5.0  # multi-second compiles
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(DEFAULT_LATENCY_BUCKETS)


class TestRegistry:
    def test_registration_is_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("c_total", "help", ("k",))
        again = registry.counter("c_total", "help", ("k",))
        assert first is again

    def test_conflicting_reregistration_raises(self):
        registry = MetricsRegistry()
        registry.counter("m", "", ("k",))
        with pytest.raises(ValueError):
            registry.gauge("m", "", ("k",))
        with pytest.raises(ValueError):
            registry.counter("m", "", ("other",))

    def test_reset_zeroes_but_keeps_handles_valid(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total")
        counter.inc(5)
        registry.reset()
        assert counter.value() == 0
        counter.inc()
        assert registry.get("c_total").value() == 1

    def test_render_is_deterministic_and_sorted(self):
        def build(order):
            registry = MetricsRegistry()
            for name in order:
                registry.counter(name, "h", ("k",))
            registry.get("b_total").inc(k="z")
            registry.get("b_total").inc(k="a")
            registry.get("a_total").inc(k="x")
            return registry.render_prometheus()

        text = build(["b_total", "a_total"])
        assert text == build(["a_total", "b_total"])
        assert text.index("a_total") < text.index("b_total")
        assert text.index('k="a"') < text.index('k="z"')

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "", ("k",)).inc(k='he said "hi"\n')
        rendered = registry.render_prometheus()
        assert 'k="he said \\"hi\\"\\n"' in rendered

    def test_help_and_type_lines_present(self):
        registry = MetricsRegistry()
        registry.histogram("h_seconds", "Latency.").observe(0.01)
        text = registry.render_prometheus()
        assert "# HELP h_seconds Latency." in text
        assert "# TYPE h_seconds histogram" in text


class TestGlobalRegistry:
    def test_instrumented_modules_register_at_import(self):
        # Importing the service and sweep layers is enough for every metric
        # family to exist — GET /metrics must list them before the first operation.
        import repro.analysis.experiments  # noqa: F401
        import repro.service.compile_service  # noqa: F401
        import repro.service.server  # noqa: F401

        names = get_metrics().names()
        for expected in (
            "repro_compile_requests_total",
            "repro_compile_load_seconds",
            "repro_compile_cold_seconds",
            "repro_store_op_seconds",
            "repro_store_breaker_open",
            "repro_store_breaker_consecutive_failures",
            "repro_store_breaker_trips_total",
            "repro_server_requests_total",
            "repro_server_request_seconds",
            "repro_sweep_reports_total",
        ):
            assert expected in names

    def test_exposition_parses_line_by_line(self):
        _parse(get_metrics().render_prometheus())
