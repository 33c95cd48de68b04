"""Per-bank registers: the open row and the earliest-issue cycles.

:class:`repro.dram.system.DramSystem` checks and writes them; it is the
one home of the timing rules.  The strictly per-bank ones are:

* ACTIVATE: not before ``tRP`` after a PRECHARGE, nor ``tRC`` after the
  previous ACTIVATE, and only when the bank is precharged.
* READ/WRITE: only on the open row, not before ``tRCD`` after ACTIVATE
  nor ``tCCD`` after the previous column command.
* PRECHARGE: not before ``tRAS`` after ACTIVATE, ``tRTP`` after a READ,
  nor write-recovery ``tCWL + tBURST + tWR`` after a WRITE.
"""

from __future__ import annotations

from typing import Optional


class Bank:
    """One DRAM bank: its row buffer plus earliest-issue registers."""

    def __init__(self) -> None:
        # The row latched in the row buffer; None when precharged.
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

    @property
    def open_row(self) -> Optional[int]:
        """The row currently latched in the row buffer, if any."""
        return self._open_row
