"""Stall watchdog: detect no-progress livelock/deadlock, dump, abort.

Progress is defined exactly as the run loop always has: the sum of
retired instructions plus delivered real fills.  When that sum stays
flat for more than ``cycles`` consecutive cycles while cores still
have work, the system is wedged — an unserviceable shaping
configuration, a shaper↔memctrl queue cycle, or an injected fault —
and the watchdog aborts cleanly with a
:class:`~repro.common.errors.WatchdogError` carrying a structured
diagnostic dump (also emitted through :mod:`repro.obs` and optionally
written to a JSON file).

Progress is checked when the clock enters a new 256-cycle block, so
the per-cycle engine sees it at block ends: progress made in a block
counts from that block's end, and a trip lands on the first block end
at least ``cycles + 1`` cycles after it (:attr:`Watchdog.limit`).

Engine note: under the skipping engine the run loop caps every clock
jump at :meth:`Watchdog.horizon` and checks progress there, so a
frozen system — one whose skipped spans hold no progress at all —
still trips, at the same cycle as the per-cycle engine: the horizon is
a block end, and progress a jump reveals is credited to the end of the
block the jump left, where the per-cycle engine saw it.  Cores may
retire privately inside a skipped span, so the check first has each
core settle what it owes (:meth:`~repro.cpu.core.Core.settle`); a
request path's lazily counted stalls are not progress and are left to
settle later.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict

from repro.common.errors import WatchdogError
from repro.core.shaper import BinShaper
from repro.obs.events import CATEGORY_RESILIENCE
from repro.obs.tracer import NULL_TRACER


def _block_end(cycle: int) -> int:
    """The first 256-cycle block boundary after ``cycle``."""
    return ((cycle >> 8) + 1) << 8


class Watchdog:
    """Forward-progress supervisor for one :meth:`System.run` call."""

    def __init__(self, cycles: int, dump_path: str = "",
                 tracer=NULL_TRACER) -> None:
        self.cycles = cycles
        self.dump_path = dump_path
        self.tracer = tracer
        #: The block end at which a system with no further progress
        #: trips, and so the furthest cycle a next-event skip may reach
        #: in one jump from any earlier cycle (see :meth:`horizon`);
        #: the run loop reads it directly.
        self.limit = _block_end(cycles)
        self._last_retired = 0
        self._last_delivered = 0

    def _arm(self, progress_cycle: int) -> None:
        self.limit = _block_end(progress_cycle + self.cycles)

    def reset(self, system) -> None:
        """Re-arm against the system's current progress counters."""
        self._arm(system.current_cycle)
        self._last_retired = sum(
            c.retired_instructions for c in system.cores
        )
        self._last_delivered = sum(map(len, system._latencies))

    def horizon(self, cycle: int) -> int:
        """The furthest cycle a next-event skip may reach in one jump.

        Never past the point the progress check must run: a frozen
        (deadlocked) system must still trip it, exactly as the
        per-cycle loop would while spinning through the same span.
        """
        return max(cycle + 1, self.limit)

    def observe(self, system, before: int) -> None:
        """Progress check at the end of a run-loop step that started at
        cycle ``before``; raises :class:`WatchdogError` on a stall."""
        cycle = system.current_cycle
        retired = 0
        for core in system.cores:
            core.settle(cycle)
            retired += core.retired_instructions
        delivered = sum(map(len, system._latencies))
        if retired != self._last_retired or delivered != self._last_delivered:
            self._last_retired = retired
            self._last_delivered = delivered
            self._arm(_block_end(before))
            return
        if cycle >= self.limit and not system.all_cores_done():
            self.trip(system)

    def trip(self, system) -> None:
        """Capture the diagnostic dump and abort."""
        pending = [
            (c.core_id, c.outstanding_misses,
             system.request_paths[c.core_id].occupancy)
            for c in system.cores
            if not c.done
        ]
        dump = diagnostic_dump(system, self.cycles)
        dump_path = ""
        if self.dump_path:
            dump_path = self.dump_path
            directory = os.path.dirname(dump_path)
            if directory:
                os.makedirs(directory, exist_ok=True)
            with open(dump_path, "w", encoding="utf-8") as fh:
                json.dump(dump, fh, indent=2, sort_keys=True)
        if self.tracer.enabled:
            self.tracer.emit(
                system.current_cycle, CATEGORY_RESILIENCE, "watchdog.stall",
                stalled_for=self.cycles,
                pending_cores=len(pending),
            )
        raise WatchdogError(
            f"no forward progress for {self.cycles} cycles "
            f"at cycle {system.current_cycle}; pending cores "
            f"(id, outstanding, shaper occupancy): {pending} — "
            "likely an unserviceable shaping configuration",
            dump=dump,
            dump_path=dump_path,
        )


def diagnostic_dump(system, stalled_for: int = 0) -> Dict[str, Any]:
    """A JSON-serialisable picture of where the system is wedged.

    Covers every station of the pipeline a transaction can be stuck
    at: core miss state, shaper buffers and credit registers, NoC port
    occupancy, the controller's staging/transaction/write queues,
    in-flight bursts and per-core egress.
    """
    system.settle()
    controller = system.controller
    cores = []
    for core in system.cores:
        path = system.request_paths[core.core_id]
        resp_path = system.response_paths[core.core_id]
        entry: Dict[str, Any] = {
            "core_id": core.core_id,
            "done": core.done,
            "retired_instructions": core.retired_instructions,
            "outstanding_misses": core.outstanding_misses,
            "request_path_occupancy": path.occupancy,
            "response_path_occupancy": resp_path.occupancy,
            "egress_pending": controller.pending_response_count(core.core_id),
        }
        for key, shaper in (
            ("request_shaper", path.shaper),
            ("response_shaper", resp_path.shaper),
        ):
            if isinstance(shaper, BinShaper):
                entry[key] = {
                    "credits": list(shaper.credits_remaining()),
                    "unused": list(shaper.unused_remaining()),
                    "next_replenish_cycle": shaper.next_replenish_cycle,
                }
        cores.append(entry)
    dump: Dict[str, Any] = {
        "kind": "watchdog_dump",
        "cycle": system.current_cycle,
        "stalled_for": stalled_for,
        "cores": cores,
        "memctrl": {
            "can_accept": controller.can_accept(),
            "queue_depth": len(controller.queue),
            "queue_capacity": controller.queue.capacity,
            "staging_depth": len(system._mc_staging),
            "in_flight": len(controller._in_flight),
            "refresh_pending": sorted(
                list(pair) for pair in controller._refresh_pending
            ),
        },
        "noc": {
            "request_link_grants": system.request_link.total_grants,
            "response_link_grants": system.response_link.total_grants,
        },
    }
    if system.resilience is not None and system.resilience.injector is not None:
        dump["faults"] = system.resilience.injector.stats()
    return dump
