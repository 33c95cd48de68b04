"""DDR3 DRAM device model (DRAMSim2-style substrate).

The paper evaluates Camouflage on SDSim, which couples the SSim core
model with DRAMSim2.  This package is our from-scratch equivalent: a
bank/rank/channel state machine that enforces the full set of DDR3
timing constraints and exposes exactly the interface a memory
controller needs — "which command does this transaction need next, can
I issue it this cycle, and when will its data arrive".

Public surface:

* :class:`DramTiming` — DDR3 timing parameter bundle (default: DDR3-1333
  as in the paper's Table II).
* :class:`DramOrganization` / :class:`AddressMapping` — geometry and
  physical-address decode.
* :class:`CommandType` / :class:`DramCommand` — command vocabulary.
* :class:`DramSystem` — the device model the controller drives.
"""

from repro.dram.address import AddressMapping, DecodedAddress
from repro.dram.bank import Bank
from repro.dram.commands import CommandType, DramCommand
from repro.dram.organization import DramOrganization
from repro.dram.system import DramSystem
from repro.dram.timing import DramTiming

__all__ = [
    "AddressMapping",
    "Bank",
    "CommandType",
    "DecodedAddress",
    "DramCommand",
    "DramOrganization",
    "DramSystem",
    "DramTiming",
]
