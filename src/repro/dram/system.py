"""Top-level DRAM device model.

:class:`DramSystem` is the object the memory controller drives.  It
answers three questions:

1. *What command does a transaction need next?* —
   :meth:`required_command`: PRECHARGE on a row conflict, ACTIVATE on a
   closed bank, READ/WRITE on a row hit.
2. *Can that command legally issue this cycle?* — :meth:`can_issue`.
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
from repro.dram.commands import CommandType, DramCommand
from repro.dram.organization import DramOrganization
from repro.dram.timing import DramTiming
from repro.obs.events import CATEGORY_DRAM
from repro.obs.tracer import NULL_TRACER


# Slots of a bank's ready-cycle memo: the command an access needs next.
_ACTIVATE, _PRECHARGE, _READ, _WRITE = range(4)


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

    # -- structure accessors ------------------------------------------------

    def bank(self, address: DecodedAddress) -> Bank:
        """The bank a decoded address targets."""
        return self.channels[address.channel].ranks[address.rank].banks[address.bank]

    # -- command planning ---------------------------------------------------

    def required_command(self, address: DecodedAddress, is_write: bool) -> DramCommand:
        """The next command needed to service an access to ``address``."""
        bank = self.bank(address)
        if bank.is_row_hit(address.row):
            kind = CommandType.WRITE if is_write else CommandType.READ
        elif bank.open_row is None:
            kind = CommandType.ACTIVATE
        else:
            kind = CommandType.PRECHARGE
        return DramCommand(kind=kind, address=address)

    def is_row_hit(self, address: DecodedAddress) -> bool:
        """True when an access to ``address`` would hit an open row."""
        return self.bank(address).is_row_hit(address.row)

    def ready_cycle(self, address: DecodedAddress, is_write: bool) -> int:
        """First cycle the *required* command for this access may issue.

        Exact until the next :meth:`issue`: every constraint involved
        (command bus, data bus, bank/rank earliest-issue registers) is
        a fixed threshold that only moves when a command issues, so
        the required command and its legality are frozen in between —
        ``can_issue(required_command(address, is_write), c)`` is
        ``ready_cycle(address, is_write) <= c``.  That also makes the
        answer a property of the bank and the command kind, not of the
        transaction: the bank/rank/data-bus part is worked out once per
        bank and kind and kept until :meth:`issue` invalidates the
        entries its command can move (:meth:`_invalidate_ready`); the
        command bus, which every command moves, is applied on read.
        May lie in the past.
        """
        # The registers are read directly: this is the controller's
        # innermost loop, and each accessor would be a call.
        channel = self.channels[address.channel]
        rank = channel.ranks[address.rank]
        bank = rank.banks[address.bank]
        open_row = bank._open_row
        if open_row == address.row:
            kind = _WRITE if is_write else _READ
        elif open_row is None:
            kind = _ACTIVATE
        else:
            kind = _PRECHARGE
        memo = self._ready.get(bank)
        if memo is None:
            memo = self._ready[bank] = [None, None, None, None]
        ready = memo[kind]
        if ready is None:
            if kind == _ACTIVATE:
                ready = rank.earliest_activate(address.bank)
            elif kind == _PRECHARGE:
                ready = bank._next_precharge
            else:
                ready = max(
                    bank._next_column,
                    channel.earliest_data_bus_command(address.rank, is_write),
                )
                if not is_write and rank._next_read_rank > ready:
                    ready = rank._next_read_rank
            memo[kind] = ready
        bus = channel._command_bus_busy_until
        return bus if bus > ready else ready

    def can_issue(self, command: DramCommand, cycle: int) -> bool:
        """May ``command`` legally issue at ``cycle``?"""
        a = command.address
        channel = self.channels[a.channel]
        if command.kind is CommandType.ACTIVATE:
            return channel.can_activate(a.rank, a.bank, cycle)
        if command.kind is CommandType.PRECHARGE:
            return channel.can_precharge(a.rank, a.bank, cycle)
        if command.kind is CommandType.READ:
            return channel.can_read(a.rank, a.bank, a.row, cycle)
        if command.kind is CommandType.WRITE:
            return channel.can_write(a.rank, a.bank, a.row, cycle)
        if command.kind is CommandType.REFRESH:
            return channel.can_refresh(a.rank, cycle)
        raise ProtocolError(f"unknown command kind {command.kind}")

    def issue(self, command: DramCommand, cycle: int) -> Optional[int]:
        """Issue ``command``; returns burst-complete cycle for column cmds."""
        a = command.address
        channel = self.channels[a.channel]
        # Every state change of a bank, rank or bus happens below.
        self._invalidate_ready(command.kind, a)
        if self.tracer.enabled:
            # Every DRAM command the controller issues funnels through
            # here, so this one hook covers ACT/PRE/RD/WR/REF.
            self.tracer.emit(
                cycle, CATEGORY_DRAM, f"dram.{command.kind.value}",
                channel=a.channel, rank=a.rank, bank=a.bank, row=a.row,
            )
        if command.kind is CommandType.ACTIVATE:
            channel.activate(a.rank, a.bank, a.row, cycle)
            return None
        if command.kind is CommandType.PRECHARGE:
            channel.precharge(a.rank, a.bank, cycle)
            return None
        if command.kind is CommandType.READ:
            return channel.read(a.rank, a.bank, a.row, cycle)
        if command.kind is CommandType.WRITE:
            return channel.write(a.rank, a.bank, a.row, cycle)
        if command.kind is CommandType.REFRESH:
            channel.refresh(a.rank, cycle)
            self._refresh_deadline[(a.channel, a.rank)] = cycle + self.timing.tREFI
            if self._enable_refresh:
                self.next_refresh = min(self._refresh_deadline.values())
            return None
        raise ProtocolError(f"unknown command kind {command.kind}")

    def _invalidate_ready(self, kind: CommandType, a: DecodedAddress) -> None:
        """Drop the memo entries a ``kind`` command at ``a`` can move.

        PRE moves only its bank; ACT its bank plus the rank's tRRD/tFAW
        gate (the ACT entry of every bank in the rank); RD/WR their
        bank plus the channel's data bus and
        tRTRS and, for WR, the rank's tWTR gate (the column entries of
        every bank in the channel); REF every bank of the rank.
        """
        memo = self._ready
        channel = self.channels[a.channel]
        banks = channel.ranks[a.rank].banks
        memo.pop(banks[a.bank], None)
        if kind is CommandType.ACTIVATE:
            for bank in banks:
                entry = memo.get(bank)
                if entry is not None:
                    entry[_ACTIVATE] = None
        elif kind is CommandType.READ or kind is CommandType.WRITE:
            for rank in channel.ranks:
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
