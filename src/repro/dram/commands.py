"""DRAM command vocabulary.

The controller decomposes each memory transaction into a sequence of
these commands.  Only the commands a timing simulator needs are
modelled; mode-register writes, ZQ calibration and power-down states do
not affect the interference phenomena the paper studies and are
omitted (documented substitution — see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.dram.address import DecodedAddress


class CommandType(Enum):
    """JEDEC DDR3 command types relevant to timing."""

    ACTIVATE = "ACT"
    PRECHARGE = "PRE"
    READ = "RD"
    WRITE = "WR"
    REFRESH = "REF"

    def __str__(self) -> str:  # pragma: no cover - repr sugar
        return self.value


@dataclass(frozen=True)
class DramCommand:
    """One command addressed to a specific bank (or rank for REFRESH)."""

    kind: CommandType
    address: DecodedAddress

    def __str__(self) -> str:  # pragma: no cover - repr sugar
        a = self.address
        return (
            f"{self.kind.value} ch{a.channel} rk{a.rank} bk{a.bank} "
            f"row{a.row} col{a.column}"
        )
