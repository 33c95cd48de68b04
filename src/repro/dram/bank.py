"""Per-bank state machine with timing-constraint bookkeeping.

Each bank tracks its open row plus the earliest cycle at which each
command class may legally issue.  Constraints that span banks (tRRD,
tFAW, data-bus occupancy, tWTR, rank refresh) live in
:class:`repro.dram.rank.Rank` and :class:`repro.dram.channel.Channel`;
this class owns the strictly per-bank rules:

* ACTIVATE: not before ``tRP`` after a PRECHARGE, nor ``tRC`` after the
  previous ACTIVATE, and only when the bank is precharged.
* READ/WRITE: only on the open row, not before ``tRCD`` after ACTIVATE.
* PRECHARGE: not before ``tRAS`` after ACTIVATE, ``tRTP`` after a READ,
  nor write-recovery ``tCWL + tBURST + tWR`` after a WRITE.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional

from repro.common.errors import ProtocolError
from repro.dram.timing import DramTiming


class BankState(Enum):
    """Row-buffer state of one bank."""

    PRECHARGED = "precharged"
    ACTIVE = "active"


class Bank:
    """One DRAM bank: row-buffer FSM plus earliest-issue registers."""

    def __init__(self, timing: DramTiming) -> None:
        self._timing = timing
        self._state = BankState.PRECHARGED
        self._open_row: Optional[int] = None
        # Earliest cycles at which each command class may issue.
        self._next_activate = 0
        self._next_column = 0
        self._next_precharge = 0
        # Statistics the controller and benchmarks read.
        self.activate_count = 0
        self.precharge_count = 0
        self.read_count = 0
        self.write_count = 0
        self.row_hit_count = 0

    # -- observers ----------------------------------------------------

    @property
    def state(self) -> BankState:
        return self._state

    @property
    def open_row(self) -> Optional[int]:
        """The row currently latched in the row buffer, if any."""
        return self._open_row

    def is_row_hit(self, row: int) -> bool:
        """True when a column access to ``row`` would hit the row buffer."""
        return self._state is BankState.ACTIVE and self._open_row == row

    def earliest_activate(self) -> int:
        return self._next_activate

    def can_activate(self, cycle: int) -> bool:
        return self._state is BankState.PRECHARGED and cycle >= self._next_activate

    def can_column(self, cycle: int, row: int) -> bool:
        return self.is_row_hit(row) and cycle >= self._next_column

    def can_precharge(self, cycle: int) -> bool:
        return self._state is BankState.ACTIVE and cycle >= self._next_precharge

    # -- command application -------------------------------------------

    def activate(self, cycle: int, row: int) -> None:
        """Open ``row`` in the row buffer."""
        if not self.can_activate(cycle):
            raise ProtocolError(
                f"illegal ACTIVATE at cycle {cycle}: state={self._state.value}, "
                f"earliest={self._next_activate}"
            )
        t = self._timing
        self._state = BankState.ACTIVE
        self._open_row = row
        self._next_column = cycle + t.tRCD
        self._next_precharge = cycle + t.tRAS
        self._next_activate = cycle + t.tRC
        self.activate_count += 1

    def read(self, cycle: int, row: int) -> None:
        """Issue a READ column command to the open row."""
        if not self.can_column(cycle, row):
            raise ProtocolError(
                f"illegal READ at cycle {cycle}: open_row={self._open_row}, "
                f"requested row={row}, earliest={self._next_column}"
            )
        t = self._timing
        # Reads delay a subsequent precharge by tRTP.
        self._next_precharge = max(self._next_precharge, cycle + t.tRTP)
        self._next_column = max(self._next_column, cycle + t.tCCD)
        self.read_count += 1
        self.row_hit_count += 1

    def write(self, cycle: int, row: int) -> None:
        """Issue a WRITE column command to the open row."""
        if not self.can_column(cycle, row):
            raise ProtocolError(
                f"illegal WRITE at cycle {cycle}: open_row={self._open_row}, "
                f"requested row={row}, earliest={self._next_column}"
            )
        t = self._timing
        # Write recovery: data must land (tCWL + tBURST) and settle (tWR)
        # before the row can be closed.
        self._next_precharge = max(
            self._next_precharge, cycle + t.tCWL + t.tBURST + t.tWR
        )
        self._next_column = max(self._next_column, cycle + t.tCCD)
        self.write_count += 1
        self.row_hit_count += 1

    def precharge(self, cycle: int) -> None:
        """Close the open row."""
        if not self.can_precharge(cycle):
            raise ProtocolError(
                f"illegal PRECHARGE at cycle {cycle}: state={self._state.value}, "
                f"earliest={self._next_precharge}"
            )
        t = self._timing
        self._state = BankState.PRECHARGED
        self._open_row = None
        self._next_activate = max(self._next_activate, cycle + t.tRP)
        self.precharge_count += 1

    def force_refresh_block(self, cycle: int) -> None:
        """Block the bank while its rank is refreshing.

        Called by the rank for every bank when a REFRESH issues;
        refresh requires all banks precharged, and no command may issue
        until ``tRFC`` later.
        """
        if self._state is not BankState.PRECHARGED:
            raise ProtocolError("REFRESH issued while a bank still has an open row")
        ready = cycle + self._timing.tRFC
        self._next_activate = max(self._next_activate, ready)
