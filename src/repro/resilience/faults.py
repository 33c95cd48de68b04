"""Fault/adversity injection: traffic bursts and link stalls.

Each fault is a frozen *spec* naming when and how hard to hit the
system; a :class:`FaultInjector` executes all specs deterministically
at the start of each tick (``repro.sim.columnar.tick`` calls
:meth:`FaultInjector.on_cycle` before any component runs, so the
injection order relative to normal work is fixed and identical under
both engines).  The injector also participates in the next-event
protocol: it reports its upcoming injection cycles and pins the system
to per-cycle stepping while a fault is actively mutating state, which
keeps fault runs bit-identical between ``engine="cycle"`` and
``engine="columnar"``.

The harness exists to *prove* the resilience contract: every injected
adversity must end in a typed error (e.g.
:class:`~repro.common.errors.WatchdogError` from a seeded livelock) or
in completion with its bound held — never a silent shaping-guarantee
violation.  Injected traffic uses ``FAKE_READ`` transactions, which
carry no architectural state, so a survived fault run still retires
exactly the workload's instructions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.common.errors import ConfigurationError
from repro.common.rng import DeterministicRng
from repro.memctrl.transaction import MemoryTransaction, TransactionType
from repro.obs.events import CATEGORY_RESILIENCE
from repro.obs.tracer import NULL_TRACER


@dataclass(frozen=True)
class TrafficBurst:
    """Flood one core's request shaper with extra intrinsic traffic.

    From ``start_cycle``, up to ``per_cycle`` extra transactions are
    submitted to the core's request path each cycle (honouring its
    ``can_accept`` backpressure) until ``count`` have been injected.
    The transactions ride the shaper's *real*-release path like demand
    misses but are ``FAKE_READ``-kinded, so their eventual responses
    carry no architectural state back into the core.  Exercises shaper
    buffering under intrinsic rates far above the configured
    distribution — the shaped output must stay on target.
    """

    core_id: int = 0
    start_cycle: int = 0
    count: int = 64
    per_cycle: int = 4

    def __post_init__(self) -> None:
        _check_positive(self, count=self.count, per_cycle=self.per_cycle)


@dataclass(frozen=True)
class LinkStall:
    """Hold the request NoC's destination not-ready (seeded wedge).

    While active, the memory controller refuses arrivals, so requests
    pile up in the link and shapers and the cores eventually starve.
    ``duration=None`` makes the stall permanent — the canonical seeded
    livelock the watchdog must catch and dump.
    """

    start_cycle: int = 0
    duration: Optional[int] = None

    def __post_init__(self) -> None:
        if self.duration is not None and self.duration <= 0:
            raise ConfigurationError("LinkStall duration must be positive")

    @property
    def end_cycle(self) -> Optional[int]:
        if self.duration is None:
            return None
        return self.start_cycle + self.duration

    def active(self, cycle: int) -> bool:
        if cycle < self.start_cycle:
            return False
        return self.duration is None or cycle < self.start_cycle + self.duration


FaultSpec = Union[TrafficBurst, LinkStall]


def _check_positive(spec, **fields) -> None:
    for name, value in fields.items():
        if value <= 0:
            raise ConfigurationError(
                f"{type(spec).__name__}.{name} must be positive: {value}"
            )


class _BurstState:
    """Mutable progress of one :class:`TrafficBurst` (picklable)."""

    __slots__ = ("spec", "remaining")

    def __init__(self, spec) -> None:
        self.spec = spec
        self.remaining = spec.count


class FaultInjector:
    """Deterministic executor for a set of fault specs."""

    def __init__(
        self,
        specs: Sequence[FaultSpec],
        rng: DeterministicRng,
        address_space_bytes: int = 1 << 30,
        line_bytes: int = 64,
    ) -> None:
        self.specs = tuple(specs)
        self._rng = rng
        self._address_space = address_space_bytes
        self._line_bytes = line_bytes
        self._bursts = [
            _BurstState(s) for s in self.specs if isinstance(s, TrafficBurst)
        ]
        self._stalls = [s for s in self.specs if isinstance(s, LinkStall)]
        self.tracer = NULL_TRACER
        # Statistics (exported into watchdog dumps and scenario reports).
        self.injected_bursts = 0

    # -- wiring ----------------------------------------------------------

    def attach_tracer(self, tracer) -> None:
        self.tracer = tracer

    # -- System.tick integration ----------------------------------------

    def request_link_stalled(self, cycle: int) -> bool:
        """True while any :class:`LinkStall` holds the MC not-ready."""
        return any(s.active(cycle) for s in self._stalls)

    def on_cycle(self, system, cycle: int) -> None:
        """Run all due injections (called at the top of ``tick``)."""
        for state in self._bursts:
            self._run_burst(system, cycle, state)

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        """Next-event contract: injection cycles are events.

        Returns ``cycle`` while any fault is actively injecting or
        stalling (pins per-cycle stepping), else the earliest future
        start/stop edge, else ``None``.
        """
        events: List[int] = []
        for state in self._bursts:
            if state.remaining <= 0:
                continue
            if cycle >= state.spec.start_cycle:
                return cycle
            events.append(state.spec.start_cycle)
        for stall in self._stalls:
            if stall.active(cycle):
                return cycle
            if cycle < stall.start_cycle:
                events.append(stall.start_cycle)
            end = stall.end_cycle
            if end is not None and cycle < end:
                events.append(end)
        return min(events) if events else None

    def stats(self) -> Dict[str, Any]:
        return {
            "specs": len(self.specs),
            "injected_bursts": self.injected_bursts,
            "bursts_remaining": sum(s.remaining for s in self._bursts),
            "stalls": [
                {"start_cycle": s.start_cycle, "duration": s.duration}
                for s in self._stalls
            ],
        }

    # -- injections ------------------------------------------------------

    def _fake_address(self) -> int:
        max_line = max(1, self._address_space // self._line_bytes)
        return self._rng.randint(0, max_line - 1) * self._line_bytes

    def _emit(self, cycle: int, name: str, **args) -> None:
        if self.tracer.enabled:
            self.tracer.emit(cycle, CATEGORY_RESILIENCE, name, **args)

    def _run_burst(self, system, cycle: int, state: _BurstState) -> None:
        spec = state.spec
        if state.remaining <= 0 or cycle < spec.start_cycle:
            return
        path = system.request_paths[spec.core_id]
        injected = 0
        while injected < spec.per_cycle and state.remaining > 0:
            if not path.can_accept():
                break
            txn = MemoryTransaction(
                core_id=spec.core_id,
                address=self._fake_address(),
                kind=TransactionType.FAKE_READ,
                created_cycle=cycle,
            )
            path.submit(txn, cycle)
            state.remaining -= 1
            injected += 1
            self.injected_bursts += 1
        if injected:
            self._emit(
                cycle, "fault.burst",
                core_id=spec.core_id, injected=injected,
                remaining=state.remaining,
            )
