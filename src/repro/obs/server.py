"""``repro serve``: a live metrics endpoint over the obs registry.

Two pieces:

* :class:`MetricsServer` — a stdlib :mod:`http.server` endpoint
  (ThreadingHTTPServer on a daemon thread, loopback by default, port 0
  = ephemeral) serving two read-only routes:

  - ``/metrics``  — the OpenMetrics text exposition (the shaping
    monitor's state is in it as ``monitor.*`` gauges),
  - ``/healthz``  — liveness JSON (status, published cycle, scrape
    count, uptime).

  The server never touches live simulator state: it serves the last
  *published* snapshot string under a lock.  Publication happens on
  the simulation thread, between ``System.run`` calls, so a scrape can
  never observe a half-ticked system and the run loop never blocks on
  a slow client.

* :class:`ServePublisher` — the bridge ``repro serve`` drives: the
  verb runs the system in ``interval``-cycle chunks and calls
  :meth:`ServePublisher.publish` after each, which refreshes the
  derived gauges (probe values, profiler families), renders the
  exposition and pushes it to the server.  Nothing is hooked into the
  engine.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING, Any, Optional

from repro.common.errors import ConfigurationError
from repro.obs.export import EXPOSITION_CONTENT_TYPE

if TYPE_CHECKING:
    from repro.obs.hub import Observability

__all__ = ["MetricsServer", "ServePublisher", "DEFAULT_PUBLISH_INTERVAL"]

#: Default publish cadence in simulated cycles — coarse enough that
#: rendering cost is invisible next to the simulation itself, fine
#: enough that a scraper polling every few seconds sees fresh state on
#: any realistically-sized run.
DEFAULT_PUBLISH_INTERVAL = 4096

_EMPTY_EXPOSITION = "# EOF\n"


def _uptime_ns_base() -> int:
    """Monotonic base for ``/healthz`` uptime — operational metadata
    only, never part of any deterministic output.
    """
    return time.perf_counter_ns()


class MetricsServer:
    """Threaded HTTP endpoint serving the last published snapshot."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self._lock = threading.Lock()
        self._exposition = _EMPTY_EXPOSITION
        self._status = "starting"
        self._published_cycle = -1
        self._publishes = 0
        self._scrapes = 0
        self._started_ns = _uptime_ns_base()
        server = self

        class _Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def do_GET(self) -> None:  # noqa: N802 (stdlib API name)
                path = self.path.split("?", 1)[0]
                if path == "/metrics":
                    body, content_type = server._metrics_response()
                elif path == "/healthz":
                    body, content_type = server._healthz_response()
                else:
                    body = b'{"error":"not found"}\n'
                    self._reply(404, body, "application/json")
                    return
                self._reply(200, body, content_type)

            def _reply(self, code: int, body: bytes,
                       content_type: str) -> None:
                self.send_response(code)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, fmt: str, *args: Any) -> None:
                """Silence the default per-request stderr chatter."""

        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self.host = self._httpd.server_address[0]
        self.port = self._httpd.server_address[1]
        self._thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "MetricsServer":
        if self._thread is not None:
            raise ConfigurationError("metrics server already started")
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-metrics-server",
            daemon=True,
        )
        self._thread.start()
        return self

    def close(self) -> None:
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join(timeout=5.0)
            self._thread = None
        self._httpd.server_close()

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- publication (simulation thread) -------------------------------------

    def publish(
        self,
        exposition: str,
        cycle: int = -1,
        status: str = "ok",
    ) -> None:
        """Swap in a new snapshot; called between cycles, never mid-tick."""
        with self._lock:
            self._exposition = exposition
            self._published_cycle = cycle
            self._publishes += 1
            self._status = status

    def mark_draining(self) -> None:
        """Flip ``/healthz`` to ``draining`` while SIGTERM shutdown
        (checkpoint + final publish) is in progress."""
        with self._lock:
            self._status = "draining"

    # -- responses (server threads) ------------------------------------------

    def _metrics_response(self):
        with self._lock:
            self._scrapes += 1
            return self._exposition.encode("utf-8"), EXPOSITION_CONTENT_TYPE

    def _healthz_response(self):
        uptime_ns = _uptime_ns_base() - self._started_ns
        with self._lock:
            doc = {
                "status": self._status,
                "cycle": self._published_cycle,
                "publishes": self._publishes,
                "scrapes": self._scrapes,
                "uptime_ms": round(uptime_ns / 1e6, 3),
            }
        body = json.dumps(doc, sort_keys=True) + "\n"
        return body.encode("utf-8"), "application/json"


class ServePublisher:
    """Bridge from an :class:`Observability` hub to a
    :class:`MetricsServer`, published every ``interval`` cycles by the
    ``repro serve`` chunk loop.
    """

    def __init__(
        self,
        obs: "Observability",
        server: MetricsServer,
        interval: int = DEFAULT_PUBLISH_INTERVAL,
    ) -> None:
        if interval <= 0:
            raise ConfigurationError("publish interval must be positive")
        self.obs = obs
        self.server = server
        self.interval = interval

    def publish(self, cycle: int, status: str = "ok") -> None:
        """Refresh derived gauges, render, and push to the server."""
        self.server.publish(
            self.obs.render_exposition(at_cycle=cycle),
            cycle=cycle,
            status=status,
        )
