"""Exporter layer: OpenMetrics exposition, shard merge, names.

The exposition contract behind ``repro run --metrics-out`` and
``repro sweep --metrics-out``: byte-deterministic output, sorted families, cumulative
histogram buckets ending in ``+Inf``, counters suffixed ``_total``,
a trailing ``# EOF``.  The shard-merge protocol is what lets the
``jobs=1`` and ``jobs=N`` merged sweep registries compare with
``cmp`` (tests in ``test_parallel.py``); here we pin its local
algebra — counters/buckets add, gauges last-write-win, versioned
documents, edge-mismatch rejection.

Prometheus-invalid names (``-``, leading digits) must be rejected at
*registration* with the typed :class:`MetricNameError`, not at render
time, so a bad name can never reach a scrape.
"""

import json

import pytest

from repro.common.errors import ConfigurationError, MetricNameError
from repro.obs import IntervalSampler, MetricsRegistry
from repro.obs.export import (
    escape_family_name,
    merge_into,
    merge_serialized,
    render_openmetrics,
    serialize_registry,
)
from repro.obs.metrics import validate_metric_name


def _sample_registry():
    registry = MetricsRegistry()
    registry.counter("requests.total").inc(7)
    registry.gauge("queue.depth").set(3)
    hist = registry.histogram("latency", (10, 20, 40))
    for value in (5, 15, 15, 39, 1000):
        hist.record(value)
    return registry


class TestExposition:
    def test_empty_registry_is_just_eof(self):
        assert render_openmetrics(MetricsRegistry()) == "# EOF\n"

    def test_families_sorted_and_typed(self):
        text = render_openmetrics(_sample_registry())
        lines = text.splitlines()
        type_lines = [ln for ln in lines if ln.startswith("# TYPE")]
        assert type_lines == [
            "# TYPE latency histogram",
            "# TYPE queue_depth gauge",
            "# TYPE requests_total counter",
        ]
        assert lines[-1] == "# EOF"
        # Every TYPE has a HELP immediately before it.
        for line in type_lines:
            family = line.split()[2]
            assert any(
                ln.startswith(f"# HELP {family} ") for ln in lines
            )

    def test_counter_total_suffix(self):
        text = render_openmetrics(_sample_registry())
        assert "requests_total_total 7" in text.splitlines()

    def test_histogram_buckets_are_cumulative(self):
        text = render_openmetrics(_sample_registry())
        lines = text.splitlines()
        assert 'latency_bucket{le="10"} 1' in lines
        assert 'latency_bucket{le="20"} 3' in lines
        assert 'latency_bucket{le="40"} 4' in lines
        # +Inf includes the overflow record (1000 > last edge).
        assert 'latency_bucket{le="+Inf"} 5' in lines
        assert "latency_sum 1074" in lines
        assert "latency_count 5" in lines

    def test_empty_histogram_renders_zero_buckets(self):
        registry = MetricsRegistry()
        registry.histogram("h", (1,))
        lines = render_openmetrics(registry).splitlines()
        assert 'h_bucket{le="1"} 0' in lines
        assert 'h_bucket{le="+Inf"} 0' in lines
        assert "h_count 0" in lines

    def test_byte_deterministic(self):
        assert render_openmetrics(_sample_registry()) == render_openmetrics(
            _sample_registry()
        )

    def test_labels_sorted_and_escaped(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(1)
        registry.histogram("h", (2,)).record(1)
        text = render_openmetrics(
            registry, labels={"shard": 'a"b\\c', "core": "0"}
        )
        assert 'g{core="0",shard="a\\"b\\\\c"} 1' in text.splitlines()
        # The le label joins the shared labels inside one brace set.
        assert 'h_bucket{core="0",le="2",shard="a\\"b\\\\c"} 1' in text

    def test_invalid_label_key_rejected(self):
        with pytest.raises(MetricNameError):
            render_openmetrics(MetricsRegistry(), labels={"bad-key": "x"})

    def test_family_collision_detected(self):
        registry = MetricsRegistry()
        registry.counter("a.b")
        registry.counter("a_b")
        with pytest.raises(MetricNameError):
            render_openmetrics(registry)

    def test_dot_escaped_to_underscore(self):
        assert escape_family_name("memctrl.queue_depth") == (
            "memctrl_queue_depth"
        )


class TestNamePolicy:
    @pytest.mark.parametrize("name", [
        "ok", "ok_name", "ok.name", "_leading", "ns:sub", "a1.b2",
    ])
    def test_valid_names_pass(self, name):
        assert validate_metric_name(name) == name

    @pytest.mark.parametrize("name", [
        "bad-name", "1leading", "", "sp ace", "unié", "tail-",
    ])
    def test_invalid_names_raise_typed_error(self, name):
        with pytest.raises(MetricNameError) as excinfo:
            validate_metric_name(name)
        assert excinfo.value.name == name
        assert isinstance(excinfo.value, ConfigurationError)

    def test_registry_rejects_at_registration(self):
        registry = MetricsRegistry()
        with pytest.raises(MetricNameError):
            registry.counter("bad-counter")
        with pytest.raises(MetricNameError):
            registry.gauge("2fast")
        with pytest.raises(MetricNameError):
            registry.histogram("no-dashes", (1, 2))
        assert registry.names() == []

    def test_sampler_probe_names_validated(self):
        sampler = IntervalSampler(interval=16)
        with pytest.raises(MetricNameError):
            sampler.add_probe("bad probe", lambda: 0)


class TestShardMerge:
    def test_serialize_round_trip(self):
        doc = serialize_registry(_sample_registry())
        merged = merge_serialized([doc])
        assert render_openmetrics(merged) == render_openmetrics(
            _sample_registry()
        )

    def test_document_is_json_typed(self):
        doc = serialize_registry(_sample_registry())
        assert doc == json.loads(json.dumps(doc))
        assert doc["version"] == 1

    def test_counters_and_buckets_add_gauges_last_write(self):
        a = MetricsRegistry()
        a.counter("c").inc(2)
        a.gauge("g").set(1)
        a.histogram("h", (10,)).record(5)
        b = MetricsRegistry()
        b.counter("c").inc(3)
        b.gauge("g").set(9)
        b.histogram("h", (10,)).record(50)
        merged = merge_serialized(
            [serialize_registry(a), serialize_registry(b)]
        )
        assert merged.counter("c").value == 5
        assert merged.gauge("g").value == 9
        hist = merged.histogram("h", (10,))
        assert hist.total == 2
        assert list(hist.counts) == [1, 1]

    def test_merge_order_fixed_by_caller_not_jobs(self):
        docs = []
        for value in (4, 8):
            registry = MetricsRegistry()
            registry.gauge("g").set(value)
            docs.append(serialize_registry(registry))
        assert merge_serialized(docs).gauge("g").value == 8
        assert merge_serialized(reversed(docs)).gauge("g").value == 4

    def test_unknown_version_rejected(self):
        with pytest.raises(ConfigurationError):
            merge_into(MetricsRegistry(), {"version": 99})

    def test_histogram_edge_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("h", (1, 2))
        doc = {
            "version": 1,
            "histograms": {
                "h": {"edges": [1, 3], "counts": [0, 0, 0],
                      "total": 0, "sum": 0},
            },
        }
        with pytest.raises(ConfigurationError):
            merge_into(registry, doc)
