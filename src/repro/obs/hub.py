"""The observability hub: configuration and per-system wiring root.

One :class:`Observability` instance is attached to one
:class:`~repro.sim.system.System` by
:meth:`~repro.sim.system.SystemBuilder.with_observability`.  It owns
the event tracer, the metrics registry + interval sampler, and the
live shaping monitor; the builder hands its tracer to every
instrumented component and registers the default probe set.

Everything is disabled by default: a system built without
``with_observability`` carries no hub at all, components keep the
shared :data:`~repro.obs.tracer.NULL_TRACER`, and the run loop skips
the sampling hooks entirely — reports stay bit-identical to an
uninstrumented build.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.common.errors import ConfigurationError
from repro.obs.metrics import IntervalSampler, MetricsRegistry
from repro.obs.monitor import ShapingMonitor
from repro.obs.profile import EngineProfiler
from repro.obs.tracer import NULL_TRACER, EventTracer


@dataclass(frozen=True)
class ObservabilityConfig:
    """What to observe, and how much memory to spend on it.

    ``trace`` enables the event tracer (every category, the most
    recent ``trace_limit`` events kept).  ``sample_interval`` enables
    the metrics time-series at that cycle period.  ``monitor`` enables
    the live shaping monitor.  ``noc_grant_trace_limit``
    bounds the NoC channels' adversary-visible grant traces.
    ``profile`` enables the deterministic engine self-profiler
    (:mod:`repro.obs.profile`); its counters live outside
    reports/digests, so turning it on never perturbs results.
    """

    trace: bool = False
    trace_limit: int = 65536
    sample_interval: Optional[int] = None
    monitor: bool = False
    monitor_interval: int = 2048
    monitor_detect: bool = False
    noc_grant_trace_limit: Optional[int] = None
    profile: bool = False

    def __post_init__(self) -> None:
        if self.trace_limit <= 0:
            raise ConfigurationError("trace_limit must be positive")
        if self.sample_interval is not None and self.sample_interval <= 0:
            raise ConfigurationError("sample_interval must be positive")
        if (
            self.noc_grant_trace_limit is not None
            and self.noc_grant_trace_limit <= 0
        ):
            raise ConfigurationError("noc_grant_trace_limit must be positive")


class Observability:
    """Tracer + metrics + monitor bundle for one system."""

    def __init__(self, config: Optional[ObservabilityConfig] = None) -> None:
        self.config = config or ObservabilityConfig()
        self.tracer = (
            EventTracer(limit=self.config.trace_limit)
            if self.config.trace
            else NULL_TRACER
        )
        self.metrics = MetricsRegistry()
        self.sampler: Optional[IntervalSampler] = (
            IntervalSampler(self.config.sample_interval)
            if self.config.sample_interval is not None
            else None
        )
        self.monitor: Optional[ShapingMonitor] = (
            ShapingMonitor(
                interval=self.config.monitor_interval,
                tracer=self.tracer,
                detect=self.config.monitor_detect,
            )
            if self.config.monitor
            else None
        )
        if self.monitor is not None:
            self.monitor.bind_metrics(self.metrics)
        self.profiler: Optional[EngineProfiler] = (
            EngineProfiler() if self.config.profile else None
        )

    @property
    def has_cycle_hooks(self) -> bool:
        """Does the run loop need to call the per-tick hooks at all?"""
        return self.sampler is not None or self.monitor is not None

    # -- run-loop hooks (called by System) ---------------------------------

    def on_cycle_end(self, cycle: int) -> None:
        """End of the tick that ran at ``cycle``."""
        if self.sampler is not None:
            self.sampler.advance(cycle)
        if self.monitor is not None:
            self.monitor.advance(cycle)

    def on_skip(self, up_to_cycle: int) -> None:
        """A next-event skip is landing; fill boundaries ≤ ``up_to_cycle``."""
        if self.sampler is not None:
            self.sampler.fill(up_to_cycle)
        if self.monitor is not None:
            self.monitor.fill(up_to_cycle)

    def on_run_end(self, cycle: int) -> None:
        """The run loop finished at ``cycle``; evaluate the monitor's
        final partial window (overwrite semantics — safe to call again
        after a resumed continuation, see ShapingMonitor.finalize)."""
        if self.monitor is not None:
            self.monitor.finalize(cycle)

    # -- export (repro run --metrics-out) ----------------------------------

    def refresh_derived_gauges(self, at_cycle: int) -> None:
        """Materialise derived registry families before an export.

        Probe values become same-named gauges (the live complement of
        the sampler's time series), and the profiler's families are
        exported.  Called only on the export path — once by
        ``repro run --metrics-out`` — so a system that never exports
        keeps its registry exactly as the components wrote it.
        """
        self.metrics.gauge("obs.published_cycle").set(at_cycle)
        if self.sampler is not None:
            for name, fn in self.sampler.probes:
                self.metrics.gauge(name).set(fn())
        if self.profiler is not None:
            self.profiler.export_to(self.metrics)

    def render_exposition(self, at_cycle: int) -> str:
        """Refresh derived gauges and render the OpenMetrics text."""
        from repro.obs.export import render_openmetrics

        self.refresh_derived_gauges(at_cycle)
        return render_openmetrics(self.metrics)
