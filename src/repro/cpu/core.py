"""USIMM-style trace-driven out-of-order core.

Model summary (per cycle):

* **Fetch** — up to ``width`` instructions enter the instruction
  window, bounded by ``window_size``.  When the next instruction is a
  memory op it probes the cache hierarchy immediately (out-of-order
  issue): on-chip hits complete after the hit latency; LLC misses
  allocate an MSHR (merging same-line misses) and emit a
  :class:`~repro.memctrl.transaction.MemoryTransaction` into the
  request sink (the ReqC shaper, or the NoC when unshaped).  Fetch
  stalls when the window, the MSHR file, or the request sink is full.
* **Retire** — up to ``width`` instructions retire in order; a load
  blocks retirement until its fill arrives (stores retire once issued,
  as with a store buffer).

The ratio "cycles stalled on memory / total cycles" is exactly the α
of the MISE slowdown model the paper's genetic algorithm uses, so the
core tracks it natively.

Private ticks and lazy settling
-------------------------------
A tick is *private* when it neither probes the cache hierarchy nor
finishes the trace: it fetches non-memory instructions, retires, pops
completed loads and counts cycles, all inside the core.  A re-probe
that fails on a full MSHR file is private too: until a fill, it only
adds one L1 miss, one L2 miss and one fetch-stall cycle.  An engine may
leave private ticks unexecuted: the core remembers its first unapplied
cycle and :meth:`Core.settle` (called by :meth:`Core.tick`, by a
horizon poll and by a demand fill) replays them in one walk — a closed
form while it streams, a jump while nothing moves.
:meth:`Core.next_event_cycle` names the first tick that is *not*
private, which is the only one an engine has to run.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional

from repro.cache.hierarchy import AccessOutcome, CacheHierarchy
from repro.cache.mshr import MshrFile
from repro.common.errors import ConfigurationError, ProtocolError
from repro.cpu.trace import MemoryTrace
from repro.memctrl.transaction import MemoryTransaction, TransactionType

#: Walk limit of an unbounded horizon poll; larger than any cycle.
_FOREVER = (1 << 63) - 1


@dataclass(frozen=True)
class CoreConfig:
    """Pipeline parameters (paper Table II defaults)."""

    width: int = 4
    window_size: int = 128
    mshr_entries: int = 8

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ConfigurationError(f"width must be positive: {self.width}")
        if self.window_size < self.width:
            raise ConfigurationError("window must hold at least one fetch group")
        if self.mshr_entries <= 0:
            raise ConfigurationError("mshr_entries must be positive")


@dataclass
class _PendingLoad:
    """An in-window load: sequence number and completion cycle."""

    seq: int
    completion_cycle: Optional[int]  # None while waiting for a fill
    line_address: int


class Core:
    """One trace-driven core with private caches and MSHRs.

    The ``request_sink`` is any object with ``can_accept()`` and
    ``submit(txn, cycle)``; the system wires the core's request
    station (:class:`~repro.core.request_shaper.RequestCamouflage`)
    here.
    """

    def __init__(
        self,
        core_id: int,
        trace: MemoryTrace,
        hierarchy: CacheHierarchy,
        request_sink,
        config: Optional[CoreConfig] = None,
    ) -> None:
        self.core_id = core_id
        self.config = config or CoreConfig()
        self.trace = trace
        self.hierarchy = hierarchy
        self.request_sink = request_sink
        self.mshrs = MshrFile(self.config.mshr_entries)

        # Trace cursor.
        self._record_index = 0
        self._trace_length = len(trace)
        self._nonmem_remaining = trace.gaps[0] if self._trace_length else 0

        # Window state.
        self._seq_fetched = 0
        self._seq_retired = 0
        self._pending_loads: Deque[_PendingLoad] = deque()
        # Loads waiting for a fill, by line address.
        self._waiting_by_line: Dict[int, List[_PendingLoad]] = {}

        # First cycle whose tick is not yet reflected in the state
        # below; private ticks from here on are applied by ``settle``.
        self._clock = 0
        # The walk the last horizon poll made, kept for the ``settle``
        # that reaches its stop cycle; any other settle or tick drops
        # it, and it is never pickled.
        self._kept_walk = None

        # Statistics.
        self.cycles = 0
        self.memory_stall_cycles = 0
        self.fetch_stall_cycles = 0
        self.finish_cycle: Optional[int] = None
        self.demand_requests = 0
        self.writeback_requests = 0

    # -- observers -------------------------------------------------------

    @property
    def done(self) -> bool:
        """All trace instructions fetched and retired."""
        return (
            self._record_index >= self._trace_length
            and self._seq_retired == self._seq_fetched
        )

    @property
    def retired_instructions(self) -> int:
        return self._seq_retired

    @property
    def window_occupancy(self) -> int:
        return self._seq_fetched - self._seq_retired

    @property
    def outstanding_misses(self) -> int:
        return len(self.mshrs)

    def ipc(self) -> float:
        """Retired instructions per cycle so far."""
        return self._seq_retired / self.cycles if self.cycles else 0.0

    def memory_stall_fraction(self) -> float:
        """MISE's α: fraction of cycles stalled on memory."""
        return self.memory_stall_cycles / self.cycles if self.cycles else 0.0

    def __getstate__(self):
        # The kept walk is a cache of the state below: a pickle does
        # not depend on whether anyone polled the horizon.
        state = self.__dict__.copy()
        del state["_kept_walk"]
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._kept_walk = None

    # -- per-cycle operation ----------------------------------------------

    def tick(self, cycle: int) -> None:
        """Fetch and retire for one cycle."""
        if self.done:
            return
        if self._clock < cycle:
            self.settle(cycle)
        self._kept_walk = None
        self._clock = cycle + 1
        self.cycles += 1
        self._fetch(cycle)
        self._retire(cycle)
        if self.done and self.finish_cycle is None:
            self.finish_cycle = cycle

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        """First cycle ``>= cycle`` whose :meth:`tick` is not private.

        That is the first tick that probes the hierarchy — a hit, a
        miss, or the re-probe of a full request sink, which mutates
        cache statistics and so recurs every cycle — or that retires
        the last instruction.  A re-probe that fails on full MSHRs is
        not such a tick: nothing it touches changes before a fill, so
        the walk counts it.  ``None`` when the core is done, or when
        it first blocks on an unfilled head load with nothing left to
        fetch or behind a failing probe: then only a fill can wake it.
        Exact as long as no fill arrives; every earlier tick can be
        left to :meth:`settle`.
        """
        if self.done:
            return None
        self.settle(cycle)
        walk = self._kept_walk = self._walk(_FOREVER)
        event = walk[0]
        return None if event == _FOREVER else event

    def settle(self, cycle: int) -> None:
        """Apply the private ticks before ``cycle`` that no one ran.

        The walk of the last :meth:`next_event_cycle` is applied as it
        stands when it stopped at ``cycle``: the state it started from
        has not moved since, or it would have been dropped.
        """
        start = self._clock
        walk = self._kept_walk
        self._kept_walk = None
        if start >= cycle or self.done:
            return
        if walk is None or walk[0] != cycle:
            walk = self._walk(cycle)
        reached, fetched, retired, nonmem, popped, stalls, probes = walk
        if reached < cycle:
            raise ProtocolError(
                f"core {self.core_id} asked to settle through cycle "
                f"{cycle}, but its tick at {reached} probes the caches "
                "or finishes the trace and was never run"
            )
        self.cycles += reached - start
        self.memory_stall_cycles += stalls
        if probes:
            self.fetch_stall_cycles += probes
            self.hierarchy.l1.misses += probes
            self.hierarchy.l2.misses += probes
        self._seq_fetched = fetched
        self._seq_retired = retired
        self._nonmem_remaining = nonmem
        for _ in range(popped):
            self._pending_loads.popleft()
        self._clock = reached

    def _walk(self, limit: int):
        """Walk private ticks from the first unapplied cycle.

        Stops at ``limit`` or at the first tick that is not private,
        whichever is first, and returns that cycle with the state the
        walked ticks lead to — ``(cycle, fetched, retired, nonmem,
        popped loads, memory-stall cycles, failed probes)`` — without
        applying it.
        Mirrors :meth:`_fetch`/:meth:`_retire` minus the hierarchy
        probe, tick by tick except where every tick is the same.  With
        a fetch group of headroom, fetch moves ``width`` per tick, and
        three runs go in closed form: pure streaming (no load in the
        window), full-width retirement toward the head load, and a
        blocked head load stalling retirement while fetch streams.  A
        blocked head load with fetch at a standstill jumps to its
        completion.  When the record's probe fails on full MSHRs
        (decided once: nothing it depends on moves before a fill),
        the walk counts the re-probe of each tick instead of stopping,
        in closed form across those jumps, and an empty window behind
        it jumps to ``limit``.  Regime edges take the per-tick body.
        """
        t = self._clock
        width = self.config.width
        window = self.config.window_size
        fetched = self._seq_fetched
        retired = self._seq_retired
        nonmem = self._nonmem_remaining
        fetching = self._record_index < self._trace_length
        loads = self._pending_loads
        load_count = len(loads)
        popped = 0
        stalls = 0
        blocked = fetching and self._probe_fails()
        probes = 0
        while t < limit:
            take = 0
            probe = 0
            if fetching:
                room = window - (fetched - retired)
                if nonmem < width and nonmem < room:
                    # Fetch reaches the record's memory access.
                    if not blocked:
                        break
                    probe = 1
                elif room >= width:
                    # A fetch group of headroom: every tick fetches
                    # ``width``, so whole runs of ticks move in closed
                    # form while retirement does the same each tick.
                    if popped == load_count:
                        gap = nonmem  # no load ahead of retirement
                    else:
                        head = loads[popped]
                        gap = head.seq - retired
                    if gap >= width:
                        # Full-width retirement, up to the head load.
                        ticks = min(nonmem // width, gap // width, limit - t)
                        fetched += ticks * width
                        retired += ticks * width
                        nonmem -= ticks * width
                        t += ticks
                        continue
                    ready = head.completion_cycle
                    if not gap and (ready is None or ready > t):
                        # The head load blocks retirement while fetch
                        # fills the window: one stall per tick.
                        wake = limit if ready is None or ready > limit else ready
                        ticks = min(nonmem // width, room // width, wake - t)
                        fetched += ticks * width
                        nonmem -= ticks * width
                        stalls += ticks
                        t += ticks
                        continue
                take = min(width, nonmem, room)
                fetched += take
                nonmem -= take
            before = retired, popped
            budget = width
            ready = 0
            while budget and retired < fetched:
                if popped < load_count:
                    head = loads[popped]
                    run = head.seq - retired
                    if not run:
                        ready = head.completion_cycle
                        if ready is None or ready > t:
                            break
                        popped += 1
                        run = 1
                    elif run > budget:
                        run = budget
                else:
                    run = min(budget, fetched - retired)
                retired += run
                budget -= run
            if not fetching and retired == fetched:
                retired, popped = before
                break  # retires the last instruction: the core finishes
            t += 1
            probes += probe
            if budget == width and retired < fetched:
                # Retirement is blocked on the head load.
                stalls += 1
                if not take:
                    # Fetch is at a standstill too: nothing moves
                    # until the load completes (never, if unfilled).
                    wake = limit if ready is None or ready > limit else ready
                    if wake > t:
                        stalls += wake - t
                        probes += probe * (wake - t)
                        t = wake
            elif probe and retired == fetched:
                # An empty window behind a failing probe: only a fill
                # moves anything.
                probes += limit - t
                t = limit
        return t, fetched, retired, nonmem, popped, stalls, probes

    def _probe_fails(self) -> bool:
        """Whether probing the current record fails on full MSHRs: it
        misses L1 and L2 and its line has no entry to merge into."""
        if not self.mshrs.is_full:
            return False
        line = self.hierarchy.line_address(
            self.trace.addresses[self._record_index]
        )
        return (
            self.mshrs.lookup(line) is None
            and not self.hierarchy.l1.lookup(line)
            and not self.hierarchy.l2.lookup(line)
        )

    def _fetch(self, cycle: int) -> None:
        budget = self.config.width
        while budget > 0 and self._record_index < self._trace_length:
            if self.window_occupancy >= self.config.window_size:
                return
            if self._nonmem_remaining > 0:
                take = min(
                    budget,
                    self._nonmem_remaining,
                    self.config.window_size - self.window_occupancy,
                )
                self._seq_fetched += take
                self._nonmem_remaining -= take
                budget -= take
                continue
            # Next instruction is the record's memory access.
            if not self._issue_memory_access(cycle):
                self.fetch_stall_cycles += 1
                return
            budget -= 1
            self._record_index += 1
            if self._record_index < self._trace_length:
                self._nonmem_remaining = self.trace.gaps[self._record_index]

    def _issue_memory_access(self, cycle: int) -> bool:
        """Probe the caches for the current record; False ⇒ stall fetch."""
        index = self._record_index
        is_write = self.trace.writes[index] == 1
        result = self.hierarchy.access(self.trace.addresses[index], is_write)
        seq = self._seq_fetched
        if result.outcome is not AccessOutcome.MISS:
            if not is_write:
                self._pending_loads.append(
                    _PendingLoad(seq, cycle + result.latency, result.line_address)
                )
            self._seq_fetched += 1
            return True

        line = result.line_address
        existing = self.mshrs.lookup(line)
        if existing is not None:
            self.mshrs.merge(line, seq, is_write)
        else:
            if self.mshrs.is_full:
                return False
            if not self.request_sink.can_accept():
                return False
            self.mshrs.allocate(line, cycle, seq, is_write)
            txn = MemoryTransaction(
                core_id=self.core_id,
                address=line,
                kind=TransactionType.READ,
                created_cycle=cycle,
            )
            self.request_sink.submit(txn, cycle)
            self.demand_requests += 1
        if not is_write:
            load = _PendingLoad(seq, None, line)
            self._pending_loads.append(load)
            self._waiting_by_line.setdefault(line, []).append(load)
        self._seq_fetched += 1
        return True

    def _retire(self, cycle: int) -> None:
        budget = self.config.width
        while budget > 0 and self._seq_retired < self._seq_fetched:
            if self._pending_loads and self._pending_loads[0].seq == self._seq_retired:
                head = self._pending_loads[0]
                if head.completion_cycle is None or head.completion_cycle > cycle:
                    if budget == self.config.width:
                        self.memory_stall_cycles += 1
                    return
                self._pending_loads.popleft()
            self._seq_retired += 1
            budget -= 1

    # -- response handling -----------------------------------------------------

    def receive_fill(self, txn: MemoryTransaction, cycle: int) -> None:
        """A memory response arrived for this core.

        Fake transactions and write-backs carry no architectural state:
        they are dropped.  Demand fills release their MSHR entry, wake
        every load waiting on the line, and install the line into the
        caches (possibly generating write-back transactions, submitted
        through the same request sink as demand traffic).
        """
        if txn.core_id != self.core_id:
            raise ProtocolError(
                f"core {self.core_id} received a fill for core {txn.core_id}"
            )
        if txn.is_fake or txn.is_write:
            return
        # In tick order the core's slot precedes delivery: the tick at
        # ``cycle`` saw the load still unfilled.
        self.settle(cycle + 1)
        line = txn.address
        entry = self.mshrs.release(line)
        for load in self._waiting_by_line.pop(line, []):
            load.completion_cycle = cycle
        writebacks = self.hierarchy.fill(line, entry.is_write)
        for victim_address in writebacks:
            self._emit_writeback(victim_address, cycle)

    def _emit_writeback(self, address: int, cycle: int) -> None:
        """Send a dirty victim to memory (best effort, buffered by sink)."""
        txn = MemoryTransaction(
            core_id=self.core_id,
            address=address,
            kind=TransactionType.WRITE,
            created_cycle=cycle,
        )
        if self.request_sink.can_accept():
            self.request_sink.submit(txn, cycle)
            self.writeback_requests += 1
        # A full sink drops the writeback: timing-wise this models an
        # eviction buffer absorbing it; the line's data payload is not
        # simulated so correctness is unaffected.
