"""Per-rank constraints: tRRD, tFAW, tWTR and refresh.

A rank groups banks that share command/power delivery.  Constraints
modelled here:

* ``tRRD`` — minimum spacing between ACTIVATEs to *different* banks of
  the same rank.
* ``tFAW`` — at most four ACTIVATEs within any rolling ``tFAW`` window
  (power limit of the charge pumps).
* ``tWTR`` — a READ to any bank of the rank must wait after the last
  WRITE burst finished (internal write-to-read turnaround).
* refresh — a REFRESH blocks every bank for ``tRFC``; the controller
  is responsible for issuing one per ``tREFI`` on average.
"""

from __future__ import annotations

from collections import deque

from repro.common.errors import ProtocolError
from repro.dram.bank import Bank, BankState
from repro.dram.timing import DramTiming


class Rank:
    """A collection of banks sharing rank-level timing state."""

    def __init__(self, timing: DramTiming, banks_per_rank: int) -> None:
        self._timing = timing
        self.banks = [Bank(timing) for _ in range(banks_per_rank)]
        self._activate_history: deque = deque(maxlen=4)
        self._next_activate_rank = 0  # tRRD gate
        self._next_read_rank = 0  # tWTR gate
        self.refresh_count = 0

    # -- constraint queries ---------------------------------------------

    def earliest_activate(self, bank_index: int, cycle_hint: int = 0) -> int:
        """Earliest cycle an ACTIVATE to ``bank_index`` may issue."""
        bank = self.banks[bank_index]
        earliest = max(bank.earliest_activate(), self._next_activate_rank)
        if len(self._activate_history) == 4:
            # Fifth ACTIVATE in the window must wait until the oldest
            # one ages out of the tFAW window.
            earliest = max(earliest, self._activate_history[0] + self._timing.tFAW)
        return max(earliest, cycle_hint)

    def can_activate(self, bank_index: int, cycle: int) -> bool:
        bank = self.banks[bank_index]
        return (
            bank.state is BankState.PRECHARGED
            and cycle >= self.earliest_activate(bank_index)
        )

    def can_read(self, bank_index: int, cycle: int, row: int) -> bool:
        return (
            cycle >= self._next_read_rank
            and self.banks[bank_index].can_column(cycle, row)
        )

    def can_write(self, bank_index: int, cycle: int, row: int) -> bool:
        return self.banks[bank_index].can_column(cycle, row)

    def all_banks_precharged(self) -> bool:
        return all(b.state is BankState.PRECHARGED for b in self.banks)

    def can_refresh(self, cycle: int) -> bool:
        """REFRESH needs every bank precharged and activate-legal."""
        if not self.all_banks_precharged():
            return False
        return all(cycle >= b.earliest_activate() for b in self.banks)

    # -- command application ----------------------------------------------

    def activate(self, bank_index: int, cycle: int, row: int) -> None:
        if not self.can_activate(bank_index, cycle):
            raise ProtocolError(
                f"rank-level ACTIVATE violation at cycle {cycle} "
                f"(bank {bank_index}, tRRD/tFAW gate)"
            )
        self.banks[bank_index].activate(cycle, row)
        self._activate_history.append(cycle)
        self._next_activate_rank = cycle + self._timing.tRRD

    def read(self, bank_index: int, cycle: int, row: int) -> None:
        if cycle < self._next_read_rank:
            raise ProtocolError(
                f"READ at cycle {cycle} violates tWTR (earliest "
                f"{self._next_read_rank})"
            )
        self.banks[bank_index].read(cycle, row)

    def write(self, bank_index: int, cycle: int, row: int) -> None:
        self.banks[bank_index].write(cycle, row)
        t = self._timing
        # READs to this rank must wait for the write burst plus tWTR.
        self._next_read_rank = max(
            self._next_read_rank, cycle + t.tCWL + t.tBURST + t.tWTR
        )

    def precharge(self, bank_index: int, cycle: int) -> None:
        self.banks[bank_index].precharge(cycle)

    def refresh(self, cycle: int) -> None:
        if not self.can_refresh(cycle):
            raise ProtocolError(f"illegal REFRESH at cycle {cycle}")
        for bank in self.banks:
            bank.force_refresh_block(cycle)
        self.refresh_count += 1
