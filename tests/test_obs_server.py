"""The live metrics endpoint and the publisher ``repro serve`` drives.

:class:`MetricsServer` is a snapshot store with an HTTP front: every
route serves the last *published* string under a lock, so these tests
exercise real sockets (loopback, ephemeral ports) but deterministic
content.  :class:`ServePublisher` only renders and pushes; the cadence
is the ``repro serve`` chunk loop, pinned by the live-scrape test in
``test_cli.py``.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.common.errors import ConfigurationError
from repro.obs import Observability, ObservabilityConfig
from repro.obs.export import EXPOSITION_CONTENT_TYPE
from repro.obs.server import (
    DEFAULT_PUBLISH_INTERVAL,
    MetricsServer,
    ServePublisher,
)


def _get(url):
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.status, response.headers, response.read()


class TestMetricsServer:
    def test_unpublished_metrics_is_empty_exposition(self):
        with MetricsServer() as server:
            status, headers, body = _get(server.url + "/metrics")
        assert status == 200
        assert body == b"# EOF\n"
        assert headers["Content-Type"] == EXPOSITION_CONTENT_TYPE

    def test_publish_then_scrape(self):
        with MetricsServer() as server:
            server.publish("# TYPE g gauge\ng 4\n# EOF\n", cycle=4096)
            _, _, metrics = _get(server.url + "/metrics")
            _, headers, health = _get(server.url + "/healthz")
        assert metrics == b"# TYPE g gauge\ng 4\n# EOF\n"
        doc = json.loads(health)
        assert doc["status"] == "ok"
        assert doc["cycle"] == 4096
        assert doc["publishes"] == 1
        assert doc["scrapes"] == 1
        assert doc["uptime_ms"] >= 0
        assert headers["Content-Type"] == "application/json"

    def test_unknown_route_404(self):
        with MetricsServer() as server:
            for route in ("/nope", "/monitor"):
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    _get(server.url + route)
                assert excinfo.value.code == 404

    def test_draining_status(self):
        with MetricsServer() as server:
            server.mark_draining()
            _, _, health = _get(server.url + "/healthz")
        assert json.loads(health)["status"] == "draining"

    def test_double_start_rejected(self):
        server = MetricsServer().start()
        try:
            with pytest.raises(ConfigurationError):
                server.start()
        finally:
            server.close()

    def test_close_is_idempotent(self):
        server = MetricsServer().start()
        server.close()
        server.close()


def _obs():
    return Observability(ObservabilityConfig(monitor=True, profile=True))


class TestServePublisher:
    def test_interval_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            ServePublisher(_obs(), server=None, interval=0)

    def test_default_interval(self):
        publisher = ServePublisher(_obs(), server=None)
        assert publisher.interval == DEFAULT_PUBLISH_INTERVAL

    def test_publish_renders_live_registry(self):
        obs = _obs()
        obs.metrics.counter("demo.hits").inc(3)
        obs.profiler.begin_run("cycle", 0)
        obs.profiler.end_run(10)
        with MetricsServer() as server:
            publisher = ServePublisher(obs, server, interval=10)
            publisher.publish(cycle=10)
            _, _, body = _get(server.url + "/metrics")
        text = body.decode("utf-8")
        assert "demo_hits_total 3" in text
        assert "obs_published_cycle 10" in text
        assert "profiler_runs_total" in text
        assert "monitor_checkpoints" in text  # monitor state rides /metrics
        assert text.endswith("# EOF\n")
