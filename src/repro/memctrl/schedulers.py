"""Memory scheduling policies: FR-FCFS and the paper's baselines.

Each scheduler implements :class:`Scheduler.select`: given the
transaction queue, the DRAM state and the current cycle, pick the
transaction whose *next required command* the controller should try to
issue this cycle.  The controller handles command decomposition
(PRECHARGE → ACTIVATE → READ/WRITE); schedulers only decide *whose*
transaction advances, which is exactly where the timing channel lives.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.common.errors import ConfigurationError
from repro.dram.system import DramSystem
from repro.memctrl.queue import TransactionQueue
from repro.memctrl.transaction import MemoryTransaction


class Scheduler:
    """Base scheduling policy."""

    name = "base"

    def select(
        self, queue: TransactionQueue, dram: DramSystem, cycle: int
    ) -> Optional[MemoryTransaction]:
        """Pick the transaction to advance this cycle (or ``None``)."""
        raise NotImplementedError

    def on_issue(self, txn: MemoryTransaction, cycle: int) -> None:
        """Hook: a column command for ``txn`` was issued."""

    def next_event_cycle(
        self,
        candidates: Sequence[MemoryTransaction],
        dram: DramSystem,
        cycle: int,
    ) -> Optional[int]:
        """Earliest cycle :meth:`select` could pick a transaction.

        A true lower bound assuming no DRAM command issues in between.
        Conservative default: any candidate at all pins the scheduler
        to per-cycle evaluation (policies with time-gated eligibility
        override this with something sharper); no candidates ⇒ no
        event.
        """
        for _ in candidates:
            return cycle
        return None

    @staticmethod
    def _earliest_candidate_advance(
        candidates: Iterable[MemoryTransaction], dram: DramSystem, cycle: int
    ) -> Optional[int]:
        """Min over candidates of the exact earliest-issuable cycle."""
        earliest: Optional[int] = None
        ready_cycle = dram.ready_cycle
        for txn in candidates:
            c = ready_cycle(txn._target or txn.resolve(dram))
            if earliest is None or c < earliest:
                earliest = c
                if earliest <= cycle:
                    break
        if earliest is None:
            return None
        return max(cycle, earliest)

    # -- shared helper -------------------------------------------------

    @staticmethod
    def _frfcfs_pick(
        candidates: Iterable[MemoryTransaction], dram: DramSystem, cycle: int
    ) -> Optional[MemoryTransaction]:
        """First-ready-FCFS among ``candidates`` (already arrival-ordered).

        Priority 1: oldest transaction whose column command (row hit)
        can issue right now.  Priority 2: oldest transaction whose
        required command (of any kind) can issue.  Implemented as a
        single allocation-free pass over the arrival-ordered queue.
        """
        first_ready = None
        ready_cycle = dram.ready_cycle
        for txn in candidates:
            target = txn._target or txn.resolve(dram)
            if ready_cycle(target) <= cycle:
                if target.bank._open_row == target.row:
                    return txn
                if first_ready is None:
                    first_ready = txn
        return first_ready


class FrFcfsScheduler(Scheduler):
    """First-Ready First-Come-First-Serve — the unprotected baseline.

    Maximizes row-buffer hit rate by reordering row hits ahead of older
    row misses.  Because one core's open rows delay another core's
    misses, this policy leaks co-runner activity through response
    latency — the attack of the paper's Figure 1.
    """

    name = "fr-fcfs"

    def select(self, queue, dram, cycle):
        return self._frfcfs_pick(queue, dram, cycle)

    def next_event_cycle(self, candidates, dram, cycle):
        # select() picks something exactly when any candidate's
        # required command is issuable, so the earliest such cycle is
        # the precise next event.
        return self._earliest_candidate_advance(candidates, dram, cycle)


class PriorityFrFcfsScheduler(Scheduler):
    """FR-FCFS with per-core priority boosts and an exclusive mode.

    Two mechanisms layered on FR-FCFS:

    * **Boost credits** — RespC's warning path (paper section III-B1):
      when a protected core's response rate falls below its target
      distribution, the shaper sends the count of unused credits; this
      scheduler then prefers that core's transactions until the boost
      is consumed (one credit per issued column command).
    * **Exclusive mode** — the MISE profiling phase (section IV-C) runs
      each application alone at highest priority to estimate its
      no-interference service rate; while a core is exclusive, its
      transactions always win.
    """

    name = "priority-fr-fcfs"

    def __init__(self, num_cores: int) -> None:
        if num_cores <= 0:
            raise ConfigurationError("num_cores must be positive")
        self._boost: Dict[int, int] = {c: 0 for c in range(num_cores)}
        # Cores whose boost is non-zero: select() skips the boosted
        # pre-pass while there are none.
        self._boosted_cores = 0
        self._exclusive_core: Optional[int] = None

    def add_boost(self, core_id: int, credits: int) -> None:
        """Grant ``credits`` additional priority tokens to ``core_id``."""
        if core_id not in self._boost:
            raise ConfigurationError(f"unknown core {core_id}")
        if credits < 0:
            raise ConfigurationError("boost credits must be non-negative")
        self._store_boost(core_id, self._boost[core_id] + credits)

    def set_boost(self, core_id: int, credits: int) -> None:
        """Replace ``core_id``'s boost pool with a fresh grant.

        RespC's per-replenishment warning path uses this: priority is
        granted "in proportion to the number of unused credits" of the
        period (paper III-B1) — a stale unconsumed grant from an
        earlier period must not accumulate, or a persistently starved
        core would eventually monopolize the scheduler.
        """
        if core_id not in self._boost:
            raise ConfigurationError(f"unknown core {core_id}")
        if credits < 0:
            raise ConfigurationError("boost credits must be non-negative")
        self._store_boost(core_id, credits)

    def _store_boost(self, core_id: int, credits: int) -> None:
        self._boosted_cores += (credits > 0) - (self._boost[core_id] > 0)
        self._boost[core_id] = credits

    def boost_of(self, core_id: int) -> int:
        return self._boost[core_id]

    def set_exclusive(self, core_id: Optional[int]) -> None:
        """Enter (or leave, with ``None``) highest-priority mode."""
        if core_id is not None and core_id not in self._boost:
            raise ConfigurationError(f"unknown core {core_id}")
        self._exclusive_core = core_id

    @property
    def exclusive_core(self) -> Optional[int]:
        return self._exclusive_core

    def select(self, queue, dram, cycle):
        if self._exclusive_core is not None:
            own = [t for t in queue if t.core_id == self._exclusive_core]
            pick = self._frfcfs_pick(own, dram, cycle)
            if pick is not None:
                return pick
            # Exclusive core idle: let others proceed so the system
            # does not deadlock during profiling.
            rest = [t for t in queue if t.core_id != self._exclusive_core]
            return self._frfcfs_pick(rest, dram, cycle)

        if self._boosted_cores:
            boosted = [t for t in queue if self._boost.get(t.core_id, 0) > 0]
            pick = self._frfcfs_pick(boosted, dram, cycle)
            if pick is not None:
                return pick
        return self._frfcfs_pick(queue, dram, cycle)

    def next_event_cycle(self, candidates, dram, cycle):
        # Boost/exclusive modes change *which* candidate wins, not
        # *whether* one does: every mode falls back to the full
        # candidate set, so the FR-FCFS bound is exact here too.
        return self._earliest_candidate_advance(candidates, dram, cycle)

    def on_issue(self, txn, cycle):
        if self._exclusive_core is None and self._boost.get(txn.core_id, 0) > 0:
            self._store_boost(txn.core_id, self._boost[txn.core_id] - 1)


class TemporalPartitioningScheduler(Scheduler):
    """Temporal Partitioning (TP, Wang et al. HPCA 2014).

    Time is divided into fixed-length turns, one security domain per
    turn, round-robin.  Only the owning domain's transactions may be
    scheduled during its turn, and a column command must complete its
    data burst inside the turn (the *dead time* at the turn edge), so
    bank/bus state never carries timing information across domains.

    The performance cost the paper measures comes from two places both
    modelled here: requests arriving outside their turn wait, and the
    dead time wastes bus cycles every turn.
    """

    name = "temporal-partitioning"

    def __init__(
        self,
        domain_of_core: Sequence[int],
        turn_length: int = 96,
        dead_time: Optional[int] = None,
    ) -> None:
        if turn_length <= 0:
            raise ConfigurationError("turn_length must be positive")
        self._domain_of_core = list(domain_of_core)
        if not self._domain_of_core:
            raise ConfigurationError("domain_of_core must not be empty")
        self._domains = sorted(set(self._domain_of_core))
        self._slot_of_domain = {d: i for i, d in enumerate(self._domains)}
        self._turn_length = turn_length
        # Worst-case command-to-burst-end span: tRP + tRCD + CL + burst.
        self._dead_time = dead_time
        if dead_time is not None and dead_time >= turn_length:
            raise ConfigurationError(
                f"dead_time {dead_time} must be shorter than the turn "
                f"({turn_length})"
            )
        self.issued_in_turn = 0

    @property
    def num_domains(self) -> int:
        return len(self._domains)

    @property
    def turn_length(self) -> int:
        return self._turn_length

    def domain_of(self, core_id: int) -> int:
        return self._domain_of_core[core_id]

    def current_owner(self, cycle: int) -> int:
        """The security domain that owns the turn containing ``cycle``."""
        slot = (cycle // self._turn_length) % self.num_domains
        return self._domains[slot]

    def cycles_left_in_turn(self, cycle: int) -> int:
        return self._turn_length - (cycle % self._turn_length)

    def _effective_dead_time(self, dram: DramSystem) -> int:
        if self._dead_time is not None:
            return self._dead_time
        return dram.timing.row_conflict_latency()

    def select(self, queue, dram, cycle):
        owner = self.current_owner(cycle)
        if self.cycles_left_in_turn(cycle) <= self._effective_dead_time(dram):
            # Dead time: nothing may start near the turn boundary.
            return None
        own = [t for t in queue if self.domain_of(t.core_id) == owner]
        return self._frfcfs_pick(own, dram, cycle)

    def next_event_cycle(self, candidates, dram, cycle):
        """The TDMA idle structure in closed form.

        A domain is served at the first cycle that lies in the live
        part of one of its own turns (before the dead time) and at
        which one of its candidates is DRAM-ready; the scheduler's
        event is the earliest of those over the domains that have
        candidates.  Other domains' turns and every dead time are
        skipped.
        """
        turn = self._turn_length
        live = turn - self._effective_dead_time(dram)
        if live <= 0:
            return None  # the dead time swallows every turn
        ready_of: Dict[int, int] = {}
        for txn in candidates:
            domain = self._domain_of_core[txn.core_id]
            ready = dram.ready_cycle(txn._target or txn.resolve(dram))
            if domain not in ready_of or ready < ready_of[domain]:
                ready_of[domain] = ready
        rotation = turn * len(self._domains)
        earliest: Optional[int] = None
        for domain, ready in ready_of.items():
            event = max(cycle, ready)
            # Cycles since the start of the domain's latest own turn.
            into = (event - self._slot_of_domain[domain] * turn) % rotation
            if into >= live:
                event += rotation - into  # its next turn's first cycle
            if earliest is None or event < earliest:
                earliest = event
        return earliest

    def on_issue(self, txn, cycle):
        self.issued_in_turn += 1


class FixedServiceScheduler(Scheduler):
    """Fixed Service (FS, Shafiee et al. MICRO 2015).

    Every thread is serviced at a constant rate: core *c* may have a
    column command issued only at its private slots, one every
    ``interval`` cycles.  A missed slot is lost (constant observable
    service, which is what makes the policy leak-free).  Pairing with
    bank partitioning is done at the system level via
    :meth:`repro.dram.AddressMapping.partitioned`, which removes
    row-buffer conflicts between threads.
    """

    name = "fixed-service"

    def __init__(self, num_cores: int, interval: int = 48,
                 dummy_fill: bool = True) -> None:
        """``dummy_fill`` models the paper's FS faithfully: a slot its
        owner cannot use is filled with a dummy request (FS "forces
        every thread to have a constant memory injection rate"), so
        observable service is constant — and memory pays for the dummy
        traffic just as Camouflage pays for fake traffic.  Disable for
        a work-conserving (leaky, faster) variant.
        """
        if num_cores <= 0:
            raise ConfigurationError("num_cores must be positive")
        if interval <= 0:
            raise ConfigurationError("interval must be positive")
        self._interval = interval
        self._next_slot: List[int] = [interval * (c + 1) for c in range(num_cores)]
        self.dummy_fill = dummy_fill
        self.dummies_injected = 0
        # Security telemetry: a slot is "slipped" when service lands
        # later than the slot plus the DRAM's intrinsic service jitter
        # (~a row-conflict latency).  Beyond that, the delay is
        # queueing — i.e. the observable service tracks load and the
        # configuration leaks.
        self.slip_tolerance = 32
        self.issued_slots = 0
        self.slipped_slots = 0

    @property
    def interval(self) -> int:
        return self._interval

    def next_slot_of(self, core_id: int) -> int:
        return self._next_slot[core_id]

    def dummy_cores_due(self, queue, cycle: int) -> List[int]:
        """Cores whose slot has arrived with nothing queued to serve.

        The controller synthesizes a dummy transaction for each (when
        ``dummy_fill``); the dummy then occupies the slot like a real
        request, keeping the injection rate constant.
        """
        if not self.dummy_fill:
            return []
        return [
            core
            for core, slot in enumerate(self._next_slot)
            if cycle >= slot and not queue.count_for_core(core)
        ]

    def select(self, queue, dram, cycle):
        eligible = [t for t in queue if cycle >= self._next_slot[t.core_id]]
        return self._frfcfs_pick(eligible, dram, cycle)

    def next_event_cycle(self, candidates, dram, cycle):
        """Earliest cycle a candidate is both at its core's slot and
        DRAM-ready — or, when dummy fill keeps empty slots generating
        work, a core with no candidate reaches its slot."""
        earliest: Optional[int] = None
        served = set()
        for txn in candidates:
            served.add(txn.core_id)
            slot = self._next_slot[txn.core_id]
            if earliest is None or slot < earliest:
                event = max(
                    slot, dram.ready_cycle(txn._target or txn.resolve(dram))
                )
                if earliest is None or event < earliest:
                    earliest = event
        if self.dummy_fill:
            for core, slot in enumerate(self._next_slot):
                if core not in served and (earliest is None or slot < earliest):
                    earliest = slot
        return None if earliest is None else max(cycle, earliest)

    def on_issue(self, txn, cycle):
        self.issued_slots += 1
        if cycle > self._next_slot[txn.core_id] + self.slip_tolerance:
            self.slipped_slots += 1
        # The next slot opens a full interval after this service, so
        # the observable service rate never exceeds 1/interval.
        self._next_slot[txn.core_id] = cycle + self._interval

    def slip_fraction(self) -> float:
        """Fraction of services landing badly late — the leak proxy.

        A valid (leak-free) FS configuration keeps this near zero; a
        too-tight interval makes service times track system load."""
        if self.issued_slots == 0:
            return 0.0
        return self.slipped_slots / self.issued_slots
