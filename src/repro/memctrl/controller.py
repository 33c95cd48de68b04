"""The memory controller: queue + scheduler + DRAM command engine.

Per cycle the controller:

1. services refresh obligations (precharging open banks and issuing
   REFRESH once a rank's tREFI deadline passes — refresh-pending ranks
   are fenced off from normal scheduling so refresh cannot starve);
2. asks its scheduling policy for a transaction to advance;
3. issues that transaction's next required DRAM command (PRECHARGE /
   ACTIVATE / READ / WRITE), stamping issue and data-ready cycles when
   the column command finally goes out;
4. moves transactions whose data burst has completed to the per-core
   egress, where the response path (RespC shaper or plain NoC) picks
   them up via :meth:`pop_responses`.

Backpressure: :meth:`can_accept` is false when the transaction queue
is full, which stalls the NoC, the request shapers and ultimately the
cores — the contention chain the timing channel rides on.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

from repro.common.errors import (
    ConfigurationError,
    ProtocolError,
    QueueOverflowError,
)
from repro.common.rng import DeterministicRng
from repro.dram.address import AddressMapping, DecodedAddress
from repro.dram.commands import CommandType, DramCommand
from repro.dram.system import DramSystem
from repro.memctrl.queue import TransactionQueue
from repro.memctrl.schedulers import FrFcfsScheduler, Scheduler
from repro.memctrl.transaction import MemoryTransaction, TransactionType
from repro.obs.events import CATEGORY_MEMCTRL
from repro.obs.tracer import NULL_TRACER


class MemoryController:
    """Shared memory controller for a multicore system.

    Parameters
    ----------
    dram:
        The DRAM device model to drive.
    scheduler:
        Scheduling policy; defaults to FR-FCFS.
    mapping:
        Default physical-address mapping.
    per_core_mapping:
        Optional per-core mappings (used by Fixed-Service bank
        partitioning, where each core sees a private bank subset).
    queue_capacity:
        Transaction queue depth (32 in the paper's Table II).
    """

    def __init__(
        self,
        dram: DramSystem,
        scheduler: Optional[Scheduler] = None,
        mapping: Optional[AddressMapping] = None,
        per_core_mapping: Optional[Dict[int, AddressMapping]] = None,
        queue_capacity: int = 32,
        egress_capacity: int = 16,
    ) -> None:
        """``egress_capacity`` bounds each core's response return queue.

        When a core's responses back up (e.g. its RespC shaper is
        throttling), the controller stops issuing that core's column
        commands — the return-channel flow control the paper describes
        ("rate limit responses and prevent overflow on the return
        channels", section V).  Backpressure then propagates naturally:
        transaction queue → NoC → request shaper → core.
        """
        self.dram = dram
        self.scheduler = scheduler or FrFcfsScheduler()
        self.mapping = mapping or AddressMapping(dram.organization)
        self._per_core_mapping = dict(per_core_mapping or {})
        if egress_capacity <= 0:
            raise ConfigurationError("egress_capacity must be positive")
        self.queue = TransactionQueue(queue_capacity)
        self._egress_capacity = egress_capacity
        # Transactions whose column command issued, awaiting burst
        # end, and the earliest of their ends (None when none fly).
        self._in_flight: List[MemoryTransaction] = []
        self._burst_due: Optional[int] = None
        # Completed transactions per core, awaiting pickup.
        self._egress: Dict[int, List[MemoryTransaction]] = {}
        # Return slots each core has committed (in flight + egress;
        # absent when zero): +1 at column issue, -k when k responses
        # are popped — a burst completion only moves a slot.  Cores at
        # the egress capacity are fenced off from scheduling.
        self._committed: Dict[int, int] = {}
        self._fenced: Set[int] = set()
        self._refresh_pending = set()
        # Fixed-Service dummy fill, when the scheduler offers it.
        self._dummy_cores_due = getattr(self.scheduler, "dummy_cores_due", None)
        self._dummy_rng = DeterministicRng(0xF5)
        self.tracer = NULL_TRACER
        # Statistics.
        self.issued_reads = 0
        self.issued_writes = 0
        self.row_hits = 0
        self.row_misses = 0
        self.refreshes = 0
        self.dummy_transactions = 0

    # -- ingress ---------------------------------------------------------

    def can_accept(self) -> bool:
        """True while the transaction queue has room."""
        return not self.queue.is_full

    def enqueue(self, txn: MemoryTransaction, cycle: int) -> None:
        """Accept a transaction from the request path."""
        if self.queue.is_full:
            raise QueueOverflowError(
                f"enqueue of transaction {txn.txn_id} (core {txn.core_id}) "
                f"while the controller cannot accept "
                f"(transaction queue {len(self.queue)}/{self.queue.capacity}"
                "); the ingress must respect can_accept backpressure",
                capacity=self.queue.capacity,
                depth=len(self.queue),
            )
        mapping = self._per_core_mapping.get(txn.core_id, self.mapping)
        txn.decoded = mapping.decode(txn.address)
        txn.resolve(self.dram)
        txn.mc_arrival_cycle = cycle
        self.queue.push(txn)
        if self.tracer.enabled:
            self.tracer.emit(
                cycle, CATEGORY_MEMCTRL, "memctrl.enqueue",
                core_id=txn.core_id,
                kind=txn.kind.name,
                queue_depth=len(self.queue),
            )

    # -- egress --------------------------------------------------------------

    def pop_responses(
        self, core_id: int, limit: Optional[int] = None
    ) -> List[MemoryTransaction]:
        """Drain up to ``limit`` completed transactions (oldest first).

        Responses left behind keep occupying the bounded egress queue,
        which throttles further column commands for this core.
        """
        ready = self._egress.get(core_id)
        if not ready or (limit is not None and limit <= 0):
            return []
        if limit is None or limit >= len(ready):
            del self._egress[core_id]
            taken = ready
        else:
            taken, self._egress[core_id] = ready[:limit], ready[limit:]
        left = self._committed[core_id] - len(taken)
        if left:
            self._committed[core_id] = left
        else:
            del self._committed[core_id]
        if left < self._egress_capacity:
            self._fenced.discard(core_id)
        return taken

    def waiting_cores(self):
        """Cores with a completed response awaiting pickup.

        A live view a caller may keep: an emptied egress list is
        dropped, never kept empty, so membership is the count test.
        """
        return self._egress.keys()

    def pending_response_count(self, core_id: int) -> int:
        ready = self._egress.get(core_id)
        return len(ready) if ready else 0

    def egress_has_room(self, core_id: int) -> bool:
        """Room among the occupied + committed slots of a core's
        return queue?"""
        return core_id not in self._fenced

    # -- main loop --------------------------------------------------------------

    def tick(self, cycle: int) -> None:
        """Advance one cycle: refresh, schedule, issue, complete."""
        if self._burst_due is not None and cycle >= self._burst_due:
            self._complete_bursts(cycle)
        next_refresh = self.dram.next_refresh
        if self._refresh_pending or (
            next_refresh is not None and cycle >= next_refresh
        ):
            self._service_refresh(cycle)
        if self._dummy_cores_due is not None:
            self._inject_scheduler_dummies(cycle)
        self._schedule_and_issue(cycle)

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        """Next cycle :meth:`tick` could change any state.

        Sources: the earliest in-flight burst completion, refresh (the
        earliest deadline, or while ranks await their REFRESH the first
        cycle one of their precharges or the REFRESH may issue), and the
        scheduler's earliest possible pick over the currently
        selectable transactions.
        """
        if self._refresh_pending:
            earliest = self.dram.refresh_horizon(self._refresh_pending)
        else:
            earliest = self.dram.next_refresh
        done = self._burst_due
        if done is not None and (earliest is None or done < earliest):
            earliest = done
        if earliest is not None and earliest <= cycle:
            return cycle  # due already: no need to ask the scheduler
        sched = self.scheduler.next_event_cycle(
            self._selectable(), self.dram, cycle
        )
        if sched is not None and (earliest is None or sched < earliest):
            earliest = sched
        return None if earliest is None else max(cycle, earliest)

    def _inject_scheduler_dummies(self, cycle: int) -> None:
        """Fill empty Fixed-Service slots with dummy transactions.

        Only schedulers exposing ``dummy_cores_due`` (FS with
        ``dummy_fill``) trigger this; the dummy is a fake read to a
        random address in the owning core's partition.
        """
        for core_id in self._dummy_cores_due(self.queue, cycle):
            if self.queue.is_full or not self.egress_has_room(core_id):
                break
            address = self._dummy_rng.randint(0, (1 << 30) // 64 - 1) * 64
            dummy = MemoryTransaction(
                core_id=core_id,
                address=address,
                kind=TransactionType.FAKE_READ,
                created_cycle=cycle,
            )
            self.enqueue(dummy, cycle)
            self.dummy_transactions += 1

    # -- internals ----------------------------------------------------------------

    def _complete_bursts(self, cycle: int) -> None:
        still_flying: List[MemoryTransaction] = []
        due = None
        for txn in self._in_flight:
            done = txn.data_ready_cycle
            if done <= cycle:
                self._egress.setdefault(txn.core_id, []).append(txn)
            else:
                still_flying.append(txn)
                if due is None or done < due:
                    due = done
        self._in_flight = still_flying
        self._burst_due = due

    def _service_refresh(self, cycle: int) -> None:
        dram = self.dram
        for channel, rank in dram.refresh_due(cycle):
            self._refresh_pending.add((channel, rank))
        for channel, rank in sorted(self._refresh_pending):
            open_banks = dram.refresh_precharge_targets(channel, rank)
            if open_banks:
                for bank in open_banks:
                    target = dram.target(DecodedAddress(channel, rank, bank, 0, 0))
                    if dram.can_issue(CommandType.PRECHARGE, target, cycle):
                        dram.issue(CommandType.PRECHARGE, target, cycle)
                        break
                continue
            target = dram.target(DecodedAddress(channel, rank, 0, 0, 0))
            if dram.can_issue(CommandType.REFRESH, target, cycle):
                dram.issue(CommandType.REFRESH, target, cycle)
                self.refreshes += 1
                self._refresh_pending.discard((channel, rank))

    def _selectable(self) -> Sequence[MemoryTransaction]:
        # Cores whose return queue is full are fenced off (flow
        # control); ranks awaiting refresh likewise.
        fenced = self._fenced
        pending = self._refresh_pending
        if not pending and not fenced:
            return self.queue
        return [
            t
            for t in self.queue
            if t.core_id not in fenced
            and (t.decoded.channel, t.decoded.rank) not in pending
        ]

    def _schedule_and_issue(self, cycle: int) -> None:
        txn = self.scheduler.select(self._selectable(), self.dram, cycle)
        if txn is None:
            return
        dram = self.dram
        target = txn._target or txn.resolve(dram)
        kind = dram.required_kind(target)
        try:
            burst_end = dram.issue(kind, target, cycle)
        except ProtocolError as error:
            # The scheduler promised an issuable command; treat anything
            # else as a policy bug rather than silently skipping.
            command = DramCommand(kind, target.address)
            raise ProtocolError(
                f"scheduler {self.scheduler.name} selected transaction "
                f"{txn.txn_id} whose command {command} cannot issue at "
                f"cycle {cycle}"
            ) from error
        if burst_end is None:  # a PRECHARGE or ACTIVATE
            txn.was_row_hit = False
            return
        # A transaction is a row hit only if it never needed its own
        # PRECHARGE/ACTIVATE — the row was already open when first
        # scheduled (FR-FCFS's preferred case).
        if txn.was_row_hit is None:
            txn.was_row_hit = True
        if txn.was_row_hit:
            self.row_hits += 1
        else:
            self.row_misses += 1
        txn.issue_cycle = cycle
        txn.data_ready_cycle = burst_end
        self.queue.remove(txn)
        # Out of the queue the target is never read again; a
        # delivered transaction holds no reference into the device.
        txn._target = None
        self._in_flight.append(txn)
        if self._burst_due is None or burst_end < self._burst_due:
            self._burst_due = burst_end
        committed = self._committed.get(txn.core_id, 0) + 1
        self._committed[txn.core_id] = committed
        if committed >= self._egress_capacity:
            self._fenced.add(txn.core_id)
        if txn.is_write:
            self.issued_writes += 1
        else:
            self.issued_reads += 1
        self.scheduler.on_issue(txn, cycle)
        if self.tracer.enabled:
            self.tracer.emit(
                cycle, CATEGORY_MEMCTRL, "memctrl.issue",
                core_id=txn.core_id,
                kind=txn.kind.name,
                row_hit=txn.was_row_hit,
                queue_depth=len(self.queue),
            )
