"""Deterministic engine self-profiler: where did the simulated work go?

The profiler attributes a run's work to pipeline stations and engine
phases so perf PRs can show *what changed* rather than just a total
wall-time delta:

* cycle accounting — simulated cycles split into *stepped* (a real
  ``tick`` ran) and *skipped* (a columnar span jump), with
  a span-length histogram of every skip;
* per-station work — under the columnar engine, how many times each
  station's kernel actually ran vs. how many scheduled slots it
  skipped (cores, request/response shaper paths, NoC links, memory
  controller, fault injector);
* engine internals — columnar dirty-row re-polls, horizon-list
  refreshes, and fallback-to-full-tick events (the injector path that
  abandons columnar stepping for a cycle);
* shaping context — the rollup folds in the shaping monitor's
  checkpoint/violation counts when one is attached.

Determinism contract
--------------------

Everything above is **integer arithmetic on simulated cycles** and is
bit-identical across the ``cycle`` and ``columnar`` engines' *shared
quantities* (total simulated cycles); engine-specific
quantities (skip spans, station skips) describe the engine, not the
simulated hardware, and are intentionally engine-variant.  None of it
enters reports, traces, samples or digests: the profiler keeps its own
state and only materialises registry families when
:meth:`EngineProfiler.export_to` is called (by the serve publisher or
the ``repro profile`` CLI verb).

Wall-clock time is measured too — it is the point of profiling — but
it is quarantined: accumulated in :attr:`EngineProfiler.wall_ns`,
surfaced only in ``rollup(include_wall=True)`` and ``/healthz``, never
exported into the metrics registry and never pickled.  Snapshots
(``REPROSNAP``) therefore stay byte-identical whether or not a
profiled run preceded them: :meth:`__getstate__` persists only the
``enabled`` flag, so a restored system re-profiles from scratch.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from typing import Any, Dict, List, Optional

from repro.obs.metrics import MetricsRegistry

__all__ = ["EngineProfiler", "SKIP_SPAN_EDGES"]

#: Upper edges (inclusive, cycles) of the skip-span histogram — powers
#: of four past the short spans, wide enough that a monitor-interval
#: jump (2048 cycles) and an idle-phase jump (tens of thousands) land
#: in distinct buckets.
SKIP_SPAN_EDGES = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512,
    1024, 4096, 16384, 65536,
)


def _wall_ns() -> int:
    """Monotonic wall clock for run bracketing.

    Observability-only: the value feeds the profiler rollup artifact
    and ``/healthz`` uptime, never cycle state, reports or digests —
    see the module docstring's determinism contract.
    """
    return time.perf_counter_ns()


class EngineProfiler:
    """Per-run work attribution with zero per-tick overhead.

    The stepped/skipped split is closed-form — ``stepped = (end -
    start) - skipped`` — so the per-cycle engine pays nothing per tick;
    the columnar engine counts its per-station work and horizon
    refreshes in plain ints of its own and hands a window's worth over
    when the run ends (``ColumnarEngine.record_work``), so only a
    clock jump costs a call.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.runs = 0
        self.engines: Dict[str, int] = {}
        self.last_engine = ""
        self.simulated_cycles = 0
        self.stepped_cycles = 0
        self.skipped_cycles = 0
        self.skip_count = 0
        self.skip_span_counts: List[int] = [0] * (len(SKIP_SPAN_EDGES) + 1)
        self.station_ticks: Dict[str, int] = {}
        self.station_skips: Dict[str, int] = {}
        self.horizon_refreshes = 0
        self.dirty_repolls = 0
        self.full_tick_fallbacks = 0
        self.wall_ns = 0
        self._run_start_cycle = 0
        self._skipped_at_begin = 0
        self._wall_start: Optional[int] = None
        self._exported: Dict[str, int] = {}

    # -- run bracketing ------------------------------------------------------

    def begin_run(self, engine: str, start_cycle: int) -> None:
        self.runs += 1
        self.engines[engine] = self.engines.get(engine, 0) + 1
        self.last_engine = engine
        self._run_start_cycle = start_cycle
        self._skipped_at_begin = self.skipped_cycles
        self._wall_start = _wall_ns()

    def end_run(self, end_cycle: int) -> None:
        span = max(0, end_cycle - self._run_start_cycle)
        self.simulated_cycles += span
        self.stepped_cycles += span - (
            self.skipped_cycles - self._skipped_at_begin
        )
        if self._wall_start is not None:
            self.wall_ns += _wall_ns() - self._wall_start
            self._wall_start = None

    # -- engine hooks (integer cycle arithmetic only) ------------------------

    def record_skip(self, span: int) -> None:
        """A clock jump of ``span`` cycles landed (columnar)."""
        if span <= 0:
            return
        self.skipped_cycles += span
        self.skip_count += 1
        # First bucket whose (inclusive) upper edge holds the span;
        # past the last edge, the overflow bucket.
        self.skip_span_counts[bisect_left(SKIP_SPAN_EDGES, span)] += 1

    def record_station(self, station: str, ticks: int = 0,
                       skips: int = 0) -> None:
        """Columnar per-station attribution: kernel ran / slot skipped."""
        if ticks:
            self.station_ticks[station] = (
                self.station_ticks.get(station, 0) + ticks
            )
        if skips:
            self.station_skips[station] = (
                self.station_skips.get(station, 0) + skips
            )

    def record_horizon_refresh(self, dirty_rows: int,
                               refreshes: int = 1) -> None:
        """``refreshes`` horizon-list refreshes re-polled ``dirty_rows``
        rows in all (the engine reports a window's worth at once)."""
        self.horizon_refreshes += refreshes
        self.dirty_repolls += dirty_rows

    def record_full_tick_fallback(self, count: int = 1) -> None:
        self.full_tick_fallbacks += count

    # -- reporting -----------------------------------------------------------

    def rollup(self, include_wall: bool = False,
               monitor=None) -> Dict[str, Any]:
        """Flame-style per-station summary, top stations first.

        Deterministic by default; ``include_wall=True`` adds the
        quarantined wall-clock total (CLI display and the CI artifact
        only).  ``monitor`` (a ShapingMonitor) folds in its checkpoint
        and violation counts.
        """
        total_ticks = sum(self.station_ticks.values())
        stations = sorted(
            set(self.station_ticks) | set(self.station_skips)
        )
        station_rows = [
            {
                "station": station,
                "ticks": self.station_ticks.get(station, 0),
                "skips": self.station_skips.get(station, 0),
                "share": (
                    round(self.station_ticks.get(station, 0) / total_ticks, 6)
                    if total_ticks else 0.0
                ),
            }
            for station in stations
        ]
        station_rows.sort(key=lambda row: (-row["ticks"], row["station"]))
        doc: Dict[str, Any] = {
            "version": 1,
            "runs": self.runs,
            "engines": dict(sorted(self.engines.items())),
            "cycles": {
                "simulated": self.simulated_cycles,
                "stepped": self.stepped_cycles,
                "skipped": self.skipped_cycles,
            },
            "skip_spans": {
                "edges": list(SKIP_SPAN_EDGES),
                "counts": list(self.skip_span_counts),
                "total": self.skip_count,
                "sum": self.skipped_cycles,
            },
            "stations": station_rows,
            "columnar": {
                "horizon_refreshes": self.horizon_refreshes,
                "dirty_repolls": self.dirty_repolls,
                "full_tick_fallbacks": self.full_tick_fallbacks,
            },
        }
        if monitor is not None:
            doc["shaping"] = {
                "checkpoints": len(monitor.history),
                "violations": monitor.violation_count,
            }
        if include_wall:
            doc["wall"] = {
                "ns": self.wall_ns,
                "ms": round(self.wall_ns / 1e6, 3),
            }
        return doc

    # -- registry export -----------------------------------------------------

    def _export_counter(self, registry: MetricsRegistry, name: str,
                        value: int) -> None:
        """Idempotent absolute export: counters advance by the delta
        since the last export, so a publish cadence never double-counts."""
        last = self._exported.get(name, 0)
        if value > last:
            registry.counter(name).inc(value - last)
            self._exported[name] = value

    def export_to(self, registry: MetricsRegistry) -> None:
        """Materialise the profiler families into ``registry``.

        Called on each publish cadence by the serve publisher and once
        by ``repro profile``; safe to call repeatedly.
        """
        self._export_counter(registry, "profiler.runs", self.runs)
        self._export_counter(
            registry, "profiler.cycles.simulated", self.simulated_cycles
        )
        self._export_counter(
            registry, "profiler.cycles.stepped", self.stepped_cycles
        )
        self._export_counter(
            registry, "profiler.cycles.skipped", self.skipped_cycles
        )
        self._export_counter(
            registry, "profiler.columnar.horizon_refreshes",
            self.horizon_refreshes,
        )
        self._export_counter(
            registry, "profiler.columnar.dirty_repolls", self.dirty_repolls
        )
        self._export_counter(
            registry, "profiler.columnar.full_tick_fallbacks",
            self.full_tick_fallbacks,
        )
        registry.histogram(
            "profiler.skip_span", SKIP_SPAN_EDGES
        ).load(
            list(self.skip_span_counts), self.skip_count,
            self.skipped_cycles,
        )
        for station in sorted(
            set(self.station_ticks) | set(self.station_skips)
        ):
            self._export_counter(
                registry, f"profiler.station.{station}.ticks",
                self.station_ticks.get(station, 0),
            )
            self._export_counter(
                registry, f"profiler.station.{station}.skips",
                self.station_skips.get(station, 0),
            )

    # -- pickling (snapshots) ------------------------------------------------

    def __getstate__(self) -> Dict[str, Any]:
        """Persist only the ``enabled`` flag: profiler counters are
        engine-variant diagnostics, and including them would make a
        snapshot's bytes depend on which engine (and how much wall
        time) preceded :meth:`take_checkpoint`.  A restored system
        re-profiles from scratch."""
        return {"enabled": self.enabled}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__init__(enabled=state.get("enabled", True))
