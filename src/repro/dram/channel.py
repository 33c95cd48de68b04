"""Per-channel shared resources: command bus and data bus.

One command may issue on a channel per cycle (command-bus width), and
the bidirectional data bus carries one burst at a time.  Data-bus
occupancy is the key cross-thread interference resource in the paper's
threat model: a victim's burst delays the attacker's burst, which is
exactly what the attacker's latency probe measures.
"""

from __future__ import annotations

from repro.common.errors import ProtocolError
from repro.dram.rank import Rank
from repro.dram.timing import DramTiming


class Channel:
    """Ranks plus the shared command/data buses of one memory channel."""

    def __init__(self, timing: DramTiming, ranks_per_channel: int,
                 banks_per_rank: int) -> None:
        self._timing = timing
        self.ranks = [Rank(timing, banks_per_rank) for _ in range(ranks_per_channel)]
        self._command_bus_busy_until = 0  # exclusive: free at this cycle
        self._data_bus_busy_until = 0
        self._last_data_rank = -1
        self.data_bus_busy_cycles = 0

    # -- command bus -----------------------------------------------------

    def command_bus_free(self, cycle: int) -> bool:
        """True when a command may be driven this cycle."""
        return cycle >= self._command_bus_busy_until

    def _claim_command_bus(self, cycle: int) -> None:
        if not self.command_bus_free(cycle):
            raise ProtocolError(
                f"command bus busy at cycle {cycle} "
                f"(free at {self._command_bus_busy_until})"
            )
        self._command_bus_busy_until = cycle + 1

    # -- data bus ----------------------------------------------------------

    def _data_bus_start(self, cycle: int, rank_index: int, is_write: bool) -> int:
        """First cycle the burst for a column command at ``cycle`` occupies."""
        t = self._timing
        lead = t.tCWL if is_write else t.tCAS
        start = cycle + lead
        return start

    def data_bus_free_for(self, cycle: int, rank_index: int, is_write: bool) -> bool:
        """Would the burst triggered by a column command at ``cycle`` fit?"""
        start = self._data_bus_start(cycle, rank_index, is_write)
        earliest = self._data_bus_busy_until
        if self._last_data_rank not in (-1, rank_index):
            earliest += self._timing.tRTRS
        return start >= earliest

    def earliest_data_bus_command(self, rank_index: int, is_write: bool) -> int:
        """Earliest command cycle whose burst fits on the data bus.

        May be negative or in the past — callers take the max with the
        current cycle.  Exact while no other command issues in between:
        ``data_bus_free_for(c, ...)`` is monotone in ``c``.
        """
        lead = self._timing.tCWL if is_write else self._timing.tCAS
        earliest = self._data_bus_busy_until
        if self._last_data_rank not in (-1, rank_index):
            earliest += self._timing.tRTRS
        return earliest - lead

    def _claim_data_bus(self, cycle: int, rank_index: int, is_write: bool) -> int:
        start = self._data_bus_start(cycle, rank_index, is_write)
        if not self.data_bus_free_for(cycle, rank_index, is_write):
            raise ProtocolError(
                f"data bus conflict: burst at {start} but bus busy until "
                f"{self._data_bus_busy_until}"
            )
        end = start + self._timing.tBURST
        self._data_bus_busy_until = end
        self._last_data_rank = rank_index
        self.data_bus_busy_cycles += self._timing.tBURST
        return end

    # -- high-level issue helpers -----------------------------------------

    def can_activate(self, rank: int, bank: int, cycle: int) -> bool:
        return self.command_bus_free(cycle) and self.ranks[rank].can_activate(
            bank, cycle
        )

    def can_precharge(self, rank: int, bank: int, cycle: int) -> bool:
        return self.command_bus_free(cycle) and self.ranks[rank].banks[
            bank
        ].can_precharge(cycle)

    def can_read(self, rank: int, bank: int, row: int, cycle: int) -> bool:
        return (
            self.command_bus_free(cycle)
            and self.ranks[rank].can_read(bank, cycle, row)
            and self.data_bus_free_for(cycle, rank, is_write=False)
        )

    def can_write(self, rank: int, bank: int, row: int, cycle: int) -> bool:
        return (
            self.command_bus_free(cycle)
            and self.ranks[rank].can_write(bank, cycle, row)
            and self.data_bus_free_for(cycle, rank, is_write=True)
        )

    def can_refresh(self, rank: int, cycle: int) -> bool:
        return self.command_bus_free(cycle) and self.ranks[rank].can_refresh(cycle)

    def activate(self, rank: int, bank: int, row: int, cycle: int) -> None:
        self._claim_command_bus(cycle)
        self.ranks[rank].activate(bank, cycle, row)

    def precharge(self, rank: int, bank: int, cycle: int) -> None:
        self._claim_command_bus(cycle)
        self.ranks[rank].precharge(bank, cycle)

    def read(self, rank: int, bank: int, row: int, cycle: int) -> int:
        """Issue a READ; returns the cycle the last data beat arrives."""
        self._claim_command_bus(cycle)
        end = self._claim_data_bus(cycle, rank, is_write=False)
        self.ranks[rank].read(bank, cycle, row)
        return end

    def write(self, rank: int, bank: int, row: int, cycle: int) -> int:
        """Issue a WRITE; returns the cycle the last data beat lands."""
        self._claim_command_bus(cycle)
        end = self._claim_data_bus(cycle, rank, is_write=True)
        self.ranks[rank].write(bank, cycle, row)
        return end

    def refresh(self, rank: int, cycle: int) -> None:
        self._claim_command_bus(cycle)
        self.ranks[rank].refresh(cycle)
