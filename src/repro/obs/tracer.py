"""The cycle-stamped event tracer and its exporters.

Design constraints, in order:

1. **Near-zero overhead when disabled.**  Every instrumented component
   holds a tracer reference (the shared :data:`NULL_TRACER` by
   default) and guards each emission with ``if tracer.enabled:`` — one
   attribute load and a branch on the hot path, nothing else.
2. **Deterministic.**  Events are stamped with simulation cycles, the
   ring drops oldest-first, and category filtering is a pure set test:
   two runs of the same seed produce identical event streams under
   both execution engines (enforced by ``tests/test_engine_equivalence``).
3. **Bounded memory.**  The ring keeps the most recent
   ``limit`` events and counts what it evicts (:attr:`EventTracer.dropped`).

Exports: Chrome trace-event JSON (loads in ``chrome://tracing`` /
Perfetto) via :meth:`EventTracer.write_chrome`, and line-delimited
JSON via :meth:`EventTracer.write_jsonl`.
"""

from __future__ import annotations

import json
from collections import deque
from typing import (
    Any, Deque, Dict, FrozenSet, IO, Iterable, List, Optional, Union,
)

from repro.common.errors import ConfigurationError
from repro.obs.events import (
    ALL_CATEGORIES,
    CHROME_PID_CORES,
    CHROME_PID_SYSTEM,
    SYSTEM_CORE,
    TraceEvent,
)


class NullTracer:
    """The disabled tracer: a shared, inert sink.

    ``enabled`` is always False; hot paths test it and skip the
    emission entirely, so an untraced run never builds an args dict or
    touches a ring buffer.  ``emit`` still exists (and does nothing)
    so cold paths may call it unconditionally.
    """

    enabled = False

    def emit(self, cycle: int, category: str, name: str,
             core_id: int = SYSTEM_CORE, **args: Any) -> None:
        pass

    def __reduce__(self):
        # Pickle to the module singleton: a checkpointed system whose
        # components share NULL_TRACER restores to components sharing
        # NULL_TRACER, not N private copies.
        return "NULL_TRACER"


#: The process-wide disabled tracer every component starts with.
NULL_TRACER = NullTracer()


class EventTracer:
    """Ring-buffered, category-filtered collector of trace events."""

    enabled = True

    def __init__(
        self,
        limit: int = 65536,
        categories: Optional[Iterable[str]] = None,
    ) -> None:
        if limit <= 0:
            raise ConfigurationError("tracer limit must be positive")
        self._ring: Deque[TraceEvent] = deque(maxlen=limit)
        self.categories: Optional[FrozenSet[str]] = (
            frozenset(categories) if categories is not None else None
        )
        if self.categories is not None:
            unknown = self.categories - set(ALL_CATEGORIES)
            if unknown:
                raise ConfigurationError(
                    f"unknown trace categories: {sorted(unknown)} "
                    f"(known: {list(ALL_CATEGORIES)})"
                )
        # Per-category emission counts (pre-ring, so drops don't hide
        # activity).  Insertion order is emission order: deterministic.
        self.counts: Dict[str, int] = {}

    # -- recording ---------------------------------------------------------

    def emit(self, cycle: int, category: str, name: str,
             core_id: int = SYSTEM_CORE, **args: Any) -> None:
        """Record one event (if its category passes the filter)."""
        if self.categories is not None and category not in self.categories:
            return
        self.counts[category] = self.counts.get(category, 0) + 1
        self._ring.append(
            TraceEvent(
                cycle=cycle,
                category=category,
                name=name,
                core_id=core_id,
                args=tuple(sorted(args.items())),
            )
        )

    # -- accessors -----------------------------------------------------------

    @property
    def events(self) -> List[TraceEvent]:
        """Retained events, oldest first."""
        return list(self._ring)

    @property
    def total_emitted(self) -> int:
        """Events that passed the category filter, evicted ones included."""
        return sum(self.counts.values())

    @property
    def dropped(self) -> int:
        """Events evicted by the ring bound."""
        return self.total_emitted - len(self._ring)

    def events_in(self, category: str) -> List[TraceEvent]:
        return [e for e in self._ring if e.category == category]

    # -- exporters -----------------------------------------------------------

    def to_chrome(self) -> Dict[str, Any]:
        """The full trace as a Chrome trace-event JSON object."""
        trace_events: List[Dict[str, Any]] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": CHROME_PID_CORES,
                "tid": 0,
                "args": {"name": "repro cores"},
            },
            {
                "name": "process_name",
                "ph": "M",
                "pid": CHROME_PID_SYSTEM,
                "tid": 0,
                "args": {"name": "repro system"},
            },
        ]
        trace_events.extend(e.as_chrome_obj() for e in self._ring)
        return {
            "traceEvents": trace_events,
            "displayTimeUnit": "ns",
            "otherData": {
                "generator": "repro.obs",
                "clock": "simulation cycles (1 cycle = 1 us in the viewer)",
                "dropped_events": self.dropped,
                "category_counts": dict(self.counts),
            },
        }

    def write_chrome(self, destination: Union[str, IO[str]]) -> None:
        """Write the Chrome trace-event JSON to a path or stream."""
        payload = self.to_chrome()
        if hasattr(destination, "write"):
            json.dump(payload, destination)
        else:
            with open(destination, "w", encoding="utf-8") as fh:
                json.dump(payload, fh)

    def write_jsonl(self, destination: Union[str, IO[str]]) -> None:
        """Write one JSON object per event (stream-friendly export)."""
        if hasattr(destination, "write"):
            self._write_jsonl_stream(destination)
        else:
            with open(destination, "w", encoding="utf-8") as fh:
                self._write_jsonl_stream(fh)

    def _write_jsonl_stream(self, fh: IO[str]) -> None:
        for event in self._ring:
            fh.write(json.dumps(event.as_jsonl_obj()))
            fh.write("\n")
