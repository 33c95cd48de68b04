"""Top-level DRAM device model.

:class:`DramSystem` is the object the memory controller drives.  An
access is first resolved to a :class:`BankTarget` (:meth:`target`),
once per transaction; everything after reads the target:

1. *What command does it need next?* — :meth:`required_kind`:
   PRECHARGE on a row conflict, ACTIVATE on a closed bank, READ/WRITE
   on a row hit.
2. *When may that command issue?* — :meth:`ready_cycle`, memoised,
   and :meth:`can_issue`, the uncached check on the live registers.
3. *Issue it* — :meth:`issue`; column commands return the cycle their
   data burst completes, which becomes the transaction's response
   timestamp.

Refresh is handled by :meth:`refresh_due` / :attr:`next_refresh`,
which the controller consults before normal scheduling (refresh has
absolute priority once due, as in DRAMSim2's refresh-first policy);
the REFRESH itself goes through :meth:`issue` like every command.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.common.errors import ProtocolError
from repro.dram.address import DecodedAddress
from repro.dram.bank import Bank
from repro.dram.channel import Channel
from repro.dram.commands import CommandType
from repro.dram.organization import DramOrganization
from repro.dram.timing import DramTiming
from repro.obs.events import CATEGORY_DRAM
from repro.obs.tracer import NULL_TRACER


# Slots of a bank's ready-cycle memo: the command an access needs next.
_ACTIVATE, _PRECHARGE, _READ, _WRITE = range(4)
_KIND_OF_SLOT = (
    CommandType.ACTIVATE,
    CommandType.PRECHARGE,
    CommandType.READ,
    CommandType.WRITE,
)


class BankTarget:
    """An access resolved to its device: the bank it addresses, that
    bank's rank and channel, the row, and whether it writes.

    Built by :meth:`DramSystem.target`; the bank, rank and channel are
    the device objects themselves, so readiness, legality and issue
    read their registers without walking the channel/rank/bank lists.
    """

    __slots__ = ("address", "channel", "rank", "bank", "row", "column_slot")

    def __init__(self, address: DecodedAddress, channel: Channel,
                 is_write: bool) -> None:
        self.address = address
        self.channel = channel
        self.rank = channel.ranks[address.rank]
        self.bank = self.rank.banks[address.bank]
        self.row = address.row
        # The memo slot of the column command a row hit needs.
        self.column_slot = _WRITE if is_write else _READ


class DramSystem:
    """All channels of the memory subsystem behind one controller."""

    def __init__(
        self,
        timing: Optional[DramTiming] = None,
        organization: Optional[DramOrganization] = None,
        enable_refresh: bool = True,
    ) -> None:
        self.timing = timing or DramTiming()
        self.organization = organization or DramOrganization()
        self.channels = [
            Channel(
                self.timing,
                self.organization.ranks_per_channel,
                self.organization.banks_per_rank,
            )
            for _ in range(self.organization.channels)
        ]
        self._enable_refresh = enable_refresh
        self.tracer = NULL_TRACER
        # bank -> ready cycle per required-command kind, without the
        # command-bus term; see ready_cycle() and _invalidate_ready().
        self._ready: Dict[Bank, List[Optional[int]]] = {}
        # Next refresh deadline per (channel, rank), and the earliest
        # of them (None when refresh is off); both move only at REF.
        self._refresh_deadline = {
            (c, r): self.timing.tREFI
            for c in range(self.organization.channels)
            for r in range(self.organization.ranks_per_channel)
        }
        self.next_refresh: Optional[int] = (
            self.timing.tREFI if enable_refresh else None
        )

    # -- resolving an access ---------------------------------------------

    def target(self, address: DecodedAddress, is_write: bool = False) -> BankTarget:
        """Resolve an access to ``address`` to the bank it targets."""
        return BankTarget(address, self.channels[address.channel], is_write)

    # -- command planning ---------------------------------------------------

    def required_kind(self, target: BankTarget) -> CommandType:
        """The next command needed to service the access."""
        open_row = target.bank._open_row
        if open_row == target.row:
            return _KIND_OF_SLOT[target.column_slot]
        return CommandType.ACTIVATE if open_row is None else CommandType.PRECHARGE

    def ready_cycle(self, target: BankTarget) -> int:
        """First cycle the *required* command for this access may issue.

        Exact until the next :meth:`issue`: every constraint involved
        (command bus, data bus, bank/rank earliest-issue registers) is
        a fixed threshold that only moves when a command issues, so
        the required command and its legality are frozen in between —
        ``can_issue(required_kind(target), target, c)`` is
        ``ready_cycle(target) <= c``.  That also makes the answer a
        property of the bank and the command kind, not of the access:
        the bank/rank/data-bus part is worked out once per bank and
        kind and kept until :meth:`issue` invalidates the entries its
        command can move (:meth:`_invalidate_ready`); the command bus,
        which every command moves, is applied on read.  May lie in the
        past.
        """
        # The registers are read directly and the kind test of
        # required_kind is inlined: this is the controller's innermost
        # loop, and each accessor would be a call.
        bank = target.bank
        open_row = bank._open_row
        if open_row == target.row:
            kind = target.column_slot
        elif open_row is None:
            kind = _ACTIVATE
        else:
            kind = _PRECHARGE
        memo = self._ready.get(bank)
        if memo is None:
            memo = self._ready[bank] = [None, None, None, None]
        ready = memo[kind]
        if ready is None:
            a = target.address
            if kind == _ACTIVATE:
                ready = target.rank.earliest_activate(a.bank)
            elif kind == _PRECHARGE:
                ready = bank._next_precharge
            else:
                is_write = kind == _WRITE
                ready = max(
                    bank._next_column,
                    target.channel.earliest_data_bus_command(a.rank, is_write),
                )
                if not is_write and target.rank._next_read_rank > ready:
                    ready = target.rank._next_read_rank
            memo[kind] = ready
        bus = target.channel._command_bus_busy_until
        return bus if bus > ready else ready

    def can_issue(self, kind: CommandType, target: BankTarget, cycle: int) -> bool:
        """May a ``kind`` command to ``target`` legally issue at ``cycle``?

        Reads the live registers, not the :meth:`ready_cycle` memo.
        """
        a = target.address
        channel = target.channel
        if kind is CommandType.ACTIVATE:
            return channel.can_activate(a.rank, a.bank, cycle)
        if kind is CommandType.PRECHARGE:
            return channel.can_precharge(a.rank, a.bank, cycle)
        if kind is CommandType.READ:
            return channel.can_read(a.rank, a.bank, a.row, cycle)
        if kind is CommandType.WRITE:
            return channel.can_write(a.rank, a.bank, a.row, cycle)
        if kind is CommandType.REFRESH:
            return channel.can_refresh(a.rank, cycle)
        raise ProtocolError(f"unknown command kind {kind}")

    def issue(self, kind: CommandType, target: BankTarget, cycle: int) -> Optional[int]:
        """Issue a ``kind`` command to ``target`` (its rank, for
        REFRESH); returns the burst-complete cycle for column commands."""
        a = target.address
        channel = target.channel
        # Every state change of a bank, rank or bus happens below.
        self._invalidate_ready(kind, target)
        if self.tracer.enabled:
            # Every DRAM command the controller issues funnels through
            # here, so this one hook covers ACT/PRE/RD/WR/REF.
            self.tracer.emit(
                cycle, CATEGORY_DRAM, f"dram.{kind.value}",
                channel=a.channel, rank=a.rank, bank=a.bank, row=a.row,
            )
        if kind is CommandType.ACTIVATE:
            channel.activate(a.rank, a.bank, a.row, cycle)
            return None
        if kind is CommandType.PRECHARGE:
            channel.precharge(a.rank, a.bank, cycle)
            return None
        if kind is CommandType.READ:
            return channel.read(a.rank, a.bank, a.row, cycle)
        if kind is CommandType.WRITE:
            return channel.write(a.rank, a.bank, a.row, cycle)
        if kind is CommandType.REFRESH:
            channel.refresh(a.rank, cycle)
            self._refresh_deadline[(a.channel, a.rank)] = cycle + self.timing.tREFI
            if self._enable_refresh:
                self.next_refresh = min(self._refresh_deadline.values())
            return None
        raise ProtocolError(f"unknown command kind {kind}")

    def _invalidate_ready(self, kind: CommandType, target: BankTarget) -> None:
        """Drop the memo entries a ``kind`` command to ``target`` can move.

        PRE moves only its bank; ACT its bank plus the rank's tRRD/tFAW
        gate (the ACT entry of every bank in the rank); RD/WR their
        bank plus the channel's data bus and
        tRTRS and, for WR, the rank's tWTR gate (the column entries of
        every bank in the channel); REF every bank of the rank.
        """
        memo = self._ready
        banks = target.rank.banks
        memo.pop(target.bank, None)
        if kind is CommandType.ACTIVATE:
            for bank in banks:
                entry = memo.get(bank)
                if entry is not None:
                    entry[_ACTIVATE] = None
        elif kind is CommandType.READ or kind is CommandType.WRITE:
            for rank in target.channel.ranks:
                for bank in rank.banks:
                    entry = memo.get(bank)
                    if entry is not None:
                        entry[_READ] = entry[_WRITE] = None
        elif kind is CommandType.REFRESH:
            for bank in banks:
                memo.pop(bank, None)

    def __getstate__(self):
        # The memo fills at different cycles under each engine; a
        # snapshot carries the state it is derived from, not the memo.
        state = self.__dict__.copy()
        state["_ready"] = {}
        return state

    # -- refresh management ---------------------------------------------------

    def refresh_due(self, cycle: int):
        """(channel, rank) pairs whose refresh deadline has passed."""
        if not self._enable_refresh:
            return []
        return [key for key, deadline in self._refresh_deadline.items()
                if cycle >= deadline]

    def refresh_precharge_targets(self, channel: int, rank: int):
        """Banks that must be precharged before a refresh can issue."""
        rk = self.channels[channel].ranks[rank]
        return [i for i, b in enumerate(rk.banks) if b.open_row is not None]

    def refresh_horizon(self, pending) -> int:
        """First cycle refresh work can move while ``pending`` ranks
        (``(channel, rank)`` pairs, non-empty) await their REFRESH.

        A pending rank's next step is the PRECHARGE of an open bank (the
        first to leave tRAS/tRTP/write recovery) or, once every bank is
        closed, the REFRESH (when the last bank is activate-legal); both
        wait for the command bus.  Any other rank's event is its tREFI
        deadline.  Exact until the next :meth:`issue`, like
        :meth:`ready_cycle`.
        """
        earliest = None
        for key, ready in self._refresh_deadline.items():
            if key in pending:
                channel = self.channels[key[0]]
                banks = channel.ranks[key[1]].banks
                closing = [b._next_precharge for b in banks
                           if b._open_row is not None]
                ready = (min(closing) if closing
                         else max(b._next_activate for b in banks))
                if channel._command_bus_busy_until > ready:
                    ready = channel._command_bus_busy_until
            if earliest is None or ready < earliest:
                earliest = ready
        return earliest

    # -- statistics --------------------------------------------------------------

    def total_row_hits(self) -> int:
        return sum(
            b.row_hit_count
            for ch in self.channels
            for rk in ch.ranks
            for b in rk.banks
        )

    def total_activates(self) -> int:
        return sum(
            b.activate_count
            for ch in self.channels
            for rk in ch.ranks
            for b in rk.banks
        )

    def data_bus_busy_cycles(self) -> int:
        return sum(ch.data_bus_busy_cycles for ch in self.channels)
