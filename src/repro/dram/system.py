"""Top-level DRAM device model.

:class:`DramSystem` is the object the memory controller drives, and
the one home of the DDR3 timing rules: the channels, ranks and banks
below it only hold registers (:mod:`repro.dram.channel`,
:mod:`repro.dram.rank`, :mod:`repro.dram.bank`), which it reads live
and writes itself.  An access is first resolved to a
:class:`BankTarget` (:meth:`target`), once per transaction; everything
after reads the target:

1. *What command does it need next?* — :meth:`required_kind`:
   PRECHARGE on a row conflict, ACTIVATE on a closed bank, READ/WRITE
   on a row hit.
2. *When may that command issue?* — :meth:`ready_cycle`, in closed
   form from the registers, and :meth:`can_issue`, the legality
   predicate that checks each rule on its own.
3. *Issue it* — :meth:`issue` evaluates the predicate once, raises
   :class:`ProtocolError` before moving anything, then writes the
   registers; column commands return the cycle their data burst
   completes, which becomes the transaction's response timestamp.

Refresh is handled by :meth:`refresh_due` / :attr:`next_refresh`,
which the controller consults before normal scheduling (refresh has
absolute priority once due, as in DRAMSim2's refresh-first policy);
the REFRESH itself goes through :meth:`issue` like every command.
"""

from __future__ import annotations

from typing import Optional

from repro.common.errors import ProtocolError
from repro.dram.address import DecodedAddress
from repro.dram.channel import Channel
from repro.dram.commands import CommandType, DramCommand
from repro.dram.organization import DramOrganization
from repro.dram.timing import DramTiming
from repro.obs.events import CATEGORY_DRAM
from repro.obs.tracer import NULL_TRACER

_ACTIVATE = CommandType.ACTIVATE
_PRECHARGE = CommandType.PRECHARGE
_READ = CommandType.READ
_WRITE = CommandType.WRITE
_REFRESH = CommandType.REFRESH


class BankTarget:
    """An access resolved to its device: the bank it addresses, that
    bank's rank and channel, the row, and whether it writes.

    Built by :meth:`DramSystem.target`; the bank, rank and channel are
    the device objects themselves, so readiness, legality and issue
    read their registers without walking the channel/rank/bank lists.
    """

    __slots__ = (
        "address", "channel", "rank", "bank", "row", "rank_index",
        "is_write", "lead",
    )

    def __init__(self, address: DecodedAddress, channel: Channel,
                 is_write: bool, timing: DramTiming) -> None:
        self.address = address
        self.channel = channel
        self.rank = channel.ranks[address.rank]
        self.bank = self.rank.banks[address.bank]
        self.row = address.row
        self.rank_index = address.rank
        self.is_write = is_write
        # Command-to-data delay of its column command (CWL or CL).
        self.lead = timing.tCWL if is_write else timing.tCAS


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
                self.organization.ranks_per_channel,
                self.organization.banks_per_rank,
            )
            for _ in range(self.organization.channels)
        ]
        self._enable_refresh = enable_refresh
        self.tracer = NULL_TRACER
        # The two derived timings issue() reads (properties of the
        # frozen timing bundle, so computed once).
        self._burst = self.timing.tBURST
        self._trc = self.timing.tRC
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
        return BankTarget(
            address, self.channels[address.channel], is_write, self.timing
        )

    # -- command planning ---------------------------------------------------

    def required_kind(self, target: BankTarget) -> CommandType:
        """The next command needed to service the access."""
        open_row = target.bank._open_row
        if open_row == target.row:
            return _WRITE if target.is_write else _READ
        return _ACTIVATE if open_row is None else _PRECHARGE

    def ready_cycle(self, target: BankTarget) -> int:
        """First cycle the *required* command for this access may issue.

        The max of the live registers that gate it — PRE: the bank's
        tRAS/tRTP/write-recovery register; ACT: the bank's tRC/tRP/tRFC
        register and the rank's ACT gate; RD/WR: the bank's tRCD/tCCD
        register, the data bus less the burst lead (plus tRTRS on a
        rank switch) and, for a READ, the rank's tWTR gate; then the
        command bus.  Every register only moves when a command issues,
        so the answer is exact until the next :meth:`issue`:
        ``can_issue(required_kind(target), target, c)`` is
        ``ready_cycle(target) <= c``.  May lie in the past.
        """
        # This is the controller's innermost loop: the kind test of
        # required_kind is inlined and each register read directly.
        bank = target.bank
        open_row = bank._open_row
        if open_row == target.row:
            ready = bank._next_column
            if not target.is_write:
                gate = target.rank._next_read_rank
                if gate > ready:
                    ready = gate
            channel = target.channel
            bus = channel._data_bus_busy_until - target.lead
            last = channel._last_data_rank
            if last != target.rank_index and last >= 0:
                bus += self.timing.tRTRS
            if bus > ready:
                ready = bus
        elif open_row is None:
            ready = bank._next_activate
            gate = target.rank._next_activate_rank
            if gate > ready:
                ready = gate
        else:
            ready = bank._next_precharge
        bus = target.channel._command_bus_busy_until
        return bus if bus > ready else ready

    def can_issue(self, kind: CommandType, target: BankTarget, cycle: int) -> bool:
        """May a ``kind`` command to ``target`` (its rank, for REFRESH)
        legally issue at ``cycle``?"""
        return self._violation(kind, target, cycle) is None

    def _violation(
        self, kind: CommandType, target: BankTarget, cycle: int
    ) -> Optional[str]:
        """The rule a ``kind`` command to ``target`` would break at
        ``cycle``, or None when it may issue.

        The legality predicate: every rule is checked on its own
        register, not as ``ready_cycle(target) <= cycle`` (tRRD and
        tFAW from the ACTIVATE history, not the rank's ACT gate), so
        the two formulations check each other.
        """
        channel = target.channel
        if cycle < channel._command_bus_busy_until:
            return f"command bus busy until {channel._command_bus_busy_until}"
        timing = self.timing
        bank = target.bank
        rank = target.rank
        if kind is _READ or kind is _WRITE:
            if bank._open_row != target.row:
                return f"row {target.row} not open (open row {bank._open_row})"
            if cycle < bank._next_column:
                return f"tRCD/tCCD: bank ready at {bank._next_column}"
            if kind is _READ and cycle < rank._next_read_rank:
                return f"tWTR: rank ready at {rank._next_read_rank}"
            free = channel._data_bus_busy_until
            if channel._last_data_rank not in (-1, target.rank_index):
                free += timing.tRTRS
            lead = timing.tCWL if kind is _WRITE else timing.tCAS
            if cycle + lead < free:
                return f"data bus: burst at {cycle + lead}, bus free at {free}"
        elif kind is _ACTIVATE:
            if bank._open_row is not None:
                return f"row {bank._open_row} open"
            if cycle < bank._next_activate:
                return f"tRC/tRP/tRFC: bank ready at {bank._next_activate}"
            history = rank._activate_history
            if history and cycle < history[-1] + timing.tRRD:
                return f"tRRD: last ACTIVATE at {history[-1]}"
            if len(history) == 4 and cycle < history[0] + timing.tFAW:
                return f"tFAW: four ACTIVATEs since {history[0]}"
        elif kind is _PRECHARGE:
            if bank._open_row is None:
                return "bank already precharged"
            if cycle < bank._next_precharge:
                return (
                    f"tRAS/tRTP/write recovery: bank ready at "
                    f"{bank._next_precharge}"
                )
        elif kind is _REFRESH:
            for index, other in enumerate(rank.banks):
                if other._open_row is not None:
                    return f"bank {index} has row {other._open_row} open"
                if cycle < other._next_activate:
                    return f"bank {index} ready at {other._next_activate}"
        else:
            return f"unknown command kind {kind}"
        return None

    def issue(self, kind: CommandType, target: BankTarget, cycle: int) -> Optional[int]:
        """Issue a ``kind`` command to ``target`` (its rank, for
        REFRESH); returns the burst-complete cycle for column commands.

        Raises :class:`ProtocolError`, with nothing moved, when the
        command is illegal at ``cycle``.
        """
        violation = self._violation(kind, target, cycle)
        if violation is not None:
            raise ProtocolError(
                f"illegal {DramCommand(kind, target.address)} at cycle "
                f"{cycle}: {violation}"
            )
        a = target.address
        if self.tracer.enabled:
            # Every DRAM command the controller issues funnels through
            # here, so this one hook covers ACT/PRE/RD/WR/REF.
            self.tracer.emit(
                cycle, CATEGORY_DRAM, f"dram.{kind.value}",
                channel=a.channel, rank=a.rank, bank=a.bank, row=a.row,
            )
        timing = self.timing
        channel = target.channel
        bank = target.bank
        rank = target.rank
        channel._command_bus_busy_until = cycle + 1
        # ACTIVATE sets the bank's gates afresh, and a legal column
        # command issues at or after _next_column, so tCCD only moves
        # that gate forward; every other register keeps the later
        # deadline.
        if kind is _READ or kind is _WRITE:
            burst = self._burst
            if kind is _WRITE:
                start = cycle + timing.tCWL
                # Write recovery: the data must land and settle (tWR)
                # before the row closes; reads to the rank wait tWTR.
                ready = start + burst + timing.tWR
                if ready > bank._next_precharge:
                    bank._next_precharge = ready
                ready = start + burst + timing.tWTR
                if ready > rank._next_read_rank:
                    rank._next_read_rank = ready
                bank.write_count += 1
            else:
                start = cycle + timing.tCAS
                ready = cycle + timing.tRTP
                if ready > bank._next_precharge:
                    bank._next_precharge = ready
                bank.read_count += 1
            bank._next_column = cycle + timing.tCCD
            bank.row_hit_count += 1
            end = start + burst
            channel._data_bus_busy_until = end
            channel._last_data_rank = target.rank_index
            channel.data_bus_busy_cycles += burst
            return end
        if kind is _ACTIVATE:
            bank._open_row = target.row
            bank._next_column = cycle + timing.tRCD
            bank._next_precharge = cycle + timing.tRAS
            bank._next_activate = cycle + self._trc
            bank.activate_count += 1
            history = rank._activate_history
            history.append(cycle)
            gate = cycle + timing.tRRD
            if len(history) == 4 and history[0] + timing.tFAW > gate:
                # A fifth ACTIVATE waits for the oldest of these four
                # to age out of the tFAW window.
                gate = history[0] + timing.tFAW
            rank._next_activate_rank = gate
        elif kind is _PRECHARGE:
            bank._open_row = None
            ready = cycle + timing.tRP
            if ready > bank._next_activate:
                bank._next_activate = ready
            bank.precharge_count += 1
        else:  # REFRESH: every bank of the rank is blocked for tRFC
            ready = cycle + timing.tRFC
            for other in rank.banks:
                if ready > other._next_activate:
                    other._next_activate = ready
            rank.refresh_count += 1
            self._refresh_deadline[(a.channel, a.rank)] = cycle + timing.tREFI
            if self._enable_refresh:
                self.next_refresh = min(self._refresh_deadline.values())
        return None

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
        return [i for i, b in enumerate(rk.banks) if b._open_row is not None]

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
