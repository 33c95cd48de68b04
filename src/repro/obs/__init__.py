"""Deterministic observability for the simulator stack.

``repro.obs`` provides six disabled-by-default facilities, all
stamped in simulation cycles (never wall clock) so their output is a
pure function of the run configuration:

* an event **tracer** (:class:`~repro.obs.tracer.EventTracer`) with
  ring-buffered storage and Chrome-trace / JSONL exporters, covering
  shaper credit activity, memory-controller scheduling, DRAM commands,
  and NoC grants;
* a **metrics** registry plus interval sampler
  (:mod:`repro.obs.metrics`) producing time-series that are identical
  under the per-cycle and next-event engines;
* a live **shaping monitor** (:class:`~repro.obs.monitor.ShapingMonitor`)
  computing running TVD/MI between intrinsic and shaped streams and
  flagging guarantee violations mid-run;
* an OpenMetrics **exporter** (:mod:`repro.obs.export`) with a
  byte-deterministic text exposition and a shard-merge protocol used
  by the parallel sweep executor;
* a deterministic engine **self-profiler**
  (:class:`~repro.obs.profile.EngineProfiler`) attributing simulated
  work to pipeline stations and engine phases in integer cycles;
* a live **metrics server** (:mod:`repro.obs.server`) backing
  ``repro serve`` with `/metrics` and `/healthz`; it pulls in
  ``http.server``, so it loads on first use of its names, not with
  this package.

Attach them to a system with
:meth:`repro.sim.system.SystemBuilder.with_observability`.
"""

from repro.obs.events import (
    ALL_CATEGORIES,
    CATEGORY_DRAM,
    CATEGORY_MEMCTRL,
    CATEGORY_MONITOR,
    CATEGORY_NOC,
    CATEGORY_SHAPER,
    SYSTEM_CORE,
    TraceEvent,
)
from repro.obs.export import (
    EXPOSITION_CONTENT_TYPE,
    merge_into,
    merge_serialized,
    render_openmetrics,
    serialize_registry,
)
from repro.obs.hub import Observability, ObservabilityConfig
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    IntervalSampler,
    MetricsRegistry,
    validate_metric_name,
)
from repro.obs.monitor import MonitorSample, ShapingMonitor, Violation
from repro.obs.profile import EngineProfiler
from repro.obs.ring import make_trace_buffer
from repro.obs.tracer import NULL_TRACER, EventTracer, NullTracer

__all__ = [
    "EXPOSITION_CONTENT_TYPE",
    "merge_into",
    "merge_serialized",
    "render_openmetrics",
    "serialize_registry",
    "validate_metric_name",
    "EngineProfiler",
    "MetricsServer",
    "ServePublisher",
    "ALL_CATEGORIES",
    "CATEGORY_DRAM",
    "CATEGORY_MEMCTRL",
    "CATEGORY_MONITOR",
    "CATEGORY_NOC",
    "CATEGORY_SHAPER",
    "SYSTEM_CORE",
    "TraceEvent",
    "Observability",
    "ObservabilityConfig",
    "Counter",
    "Gauge",
    "Histogram",
    "IntervalSampler",
    "MetricsRegistry",
    "MonitorSample",
    "ShapingMonitor",
    "Violation",
    "make_trace_buffer",
    "NULL_TRACER",
    "EventTracer",
    "NullTracer",
]


def __getattr__(name: str):
    if name in ("MetricsServer", "ServePublisher"):
        from repro.obs import server

        return getattr(server, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
