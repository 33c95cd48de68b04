"""Per-channel registers: the command bus and the data bus.

One command may issue on a channel per cycle (command-bus width), and
the bidirectional data bus carries one burst at a time, with a tRTRS
gap when consecutive bursts come from different ranks.  Data-bus
occupancy is the key cross-thread interference resource in the paper's
threat model: a victim's burst delays the attacker's burst, which is
exactly what the attacker's latency probe measures.
:class:`repro.dram.system.DramSystem` checks and writes the registers.
"""

from __future__ import annotations

from repro.dram.rank import Rank


class Channel:
    """Ranks plus the shared command/data buses of one memory channel."""

    def __init__(self, ranks_per_channel: int, banks_per_rank: int) -> None:
        self.ranks = [Rank(banks_per_rank) for _ in range(ranks_per_channel)]
        self._command_bus_busy_until = 0  # exclusive: free at this cycle
        self._data_bus_busy_until = 0
        self._last_data_rank = -1  # rank of the last burst; -1: none yet
        self.data_bus_busy_cycles = 0
