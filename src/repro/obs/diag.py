"""Process-global diagnostics channel for code outside any System.

The event tracer (:class:`~repro.obs.tracer.EventTracer`) is wired
per-system, but some observations happen where no system exists yet:
the parallel sweep executor scheduling work across processes, the
result cache deciding hit or miss.
This module gives that code one shared, bounded, always-on recorder so
diagnostics are inspectable in tests and surfaced by the CLI without
threading a tracer through every signature.

The recorder is an :class:`~repro.obs.tracer.EventTracer` like any
other.  Determinism: each diagnostic is stamped with the recorder's
own ``total_emitted`` (``cycle`` in the event model) rather than
wall-clock time, so a run's diagnostic stream is a pure function of
the work it performed.  :func:`reset` replaces the recorder, which
restarts the stamps — tests use it to isolate assertions.

The recorder is intentionally per-process: worker processes spawned by
:class:`repro.parallel.SweepExecutor` accumulate their own streams,
and the executor re-emits worker-side diagnostics it cares about in
the parent (cache and scheduling decisions all happen parent-side).
"""

from __future__ import annotations

import threading
from typing import List, Optional

from repro.obs.events import SYSTEM_CORE, TraceEvent
from repro.obs.tracer import EventTracer

#: Retained diagnostics; oldest evicted first.
DIAG_LIMIT = 1024

_tracer = EventTracer(limit=DIAG_LIMIT)
# Executor lanes are threads: reading the stamp and recording the event
# must not interleave.
_lock = threading.Lock()


def emit_diagnostic(
    name: str,
    category: str,
    core_id: int = SYSTEM_CORE,
    **args,
) -> None:
    """Record one diagnostic event."""
    with _lock:
        _tracer.emit(_tracer.total_emitted, category, name, core_id, **args)


def recent(
    name: Optional[str] = None, category: Optional[str] = None
) -> List[TraceEvent]:
    """Retained diagnostics, oldest first, optionally filtered."""
    events = _tracer.events
    if category is not None:
        events = [e for e in events if e.category == category]
    if name is not None:
        events = [e for e in events if e.name == name]
    return events


def count(name: Optional[str] = None, category: Optional[str] = None) -> int:
    """Number of retained diagnostics matching the filters."""
    return len(recent(name=name, category=category))


def reset() -> None:
    """Drop all retained diagnostics and restart the stamps."""
    global _tracer
    _tracer = EventTracer(limit=DIAG_LIMIT)
