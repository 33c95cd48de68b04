"""Trace-event model: what one observable thing happening looks like.

Every event is stamped with the *simulation* cycle it occurred at —
never wall-clock time — so a trace is a pure function of the run
configuration and two runs of the same seed produce byte-identical
traces under either execution engine.  Categories partition the
simulator stack the way DESIGN.md §4's pipeline does; the Chrome
exporter writes each as the event's ``cat``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Tuple

#: Shaper-side events: credit replenishment, real releases, fake
#: injection, jitter holds, epoch boundaries.
CATEGORY_SHAPER = "shaper"
#: Memory-controller events: ingress enqueues and scheduler picks.
CATEGORY_MEMCTRL = "memctrl"
#: DRAM command issue: ACT / PRE / RD / WR / REF.
CATEGORY_DRAM = "dram"
#: NoC events: arbitration grants on either channel direction.
CATEGORY_NOC = "noc"
#: Live shaping-monitor violations (guarantee and zoo-attacker
#: threshold breaches alike).
CATEGORY_MONITOR = "monitor"
#: Resilience events: checkpoints taken, watchdog dumps, injected
#: faults.
CATEGORY_RESILIENCE = "resilience"
#: ``core_id`` used by events not attributable to a single core
#: (refresh, monitor checkpoints, …).
SYSTEM_CORE = -1


@dataclass(frozen=True)
class TraceEvent:
    """One cycle-stamped observation.

    ``args`` must hold only plain JSON-serialisable scalars (ints,
    floats, strings, bools): events are compared by value in the
    engine-equivalence tests and exported verbatim, so object
    references are forbidden by construction.
    """

    cycle: int
    category: str
    name: str
    core_id: int = SYSTEM_CORE
    args: Tuple[Tuple[str, Any], ...] = field(default_factory=tuple)

    @property
    def args_dict(self) -> Dict[str, Any]:
        return dict(self.args)

    def as_chrome_obj(self) -> Dict[str, Any]:
        """Chrome trace-event (JSON Array Format) instant event.

        ``ts`` is the simulation cycle used directly as the trace
        timestamp (microsecond units in the viewer — one cycle renders
        as one microsecond, which preserves all ordering and spacing).
        Each core gets its own thread track; system-wide events share
        track 0 of a separate "system" process.
        """
        pid, tid = _track_of(self.core_id)
        return {
            "name": self.name,
            "cat": self.category,
            "ph": "i",
            "s": "t",
            "ts": self.cycle,
            "pid": pid,
            "tid": tid,
            "args": self.args_dict,
        }


#: Chrome trace pid for per-core tracks / system-wide tracks.
CHROME_PID_CORES = 1
CHROME_PID_SYSTEM = 2


def _track_of(core_id: int) -> Tuple[int, int]:
    if core_id >= 0:
        return CHROME_PID_CORES, core_id
    return CHROME_PID_SYSTEM, 0

