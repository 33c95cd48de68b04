"""Per-rank registers: the ACTIVATE gate (tRRD, tFAW) and tWTR.

A rank groups banks that share command/power delivery.  The rules its
registers encode, checked and written by
:class:`repro.dram.system.DramSystem`:

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

from repro.dram.bank import Bank


class Rank:
    """A collection of banks sharing rank-level timing registers."""

    def __init__(self, banks_per_rank: int) -> None:
        self.banks = [Bank() for _ in range(banks_per_rank)]
        # Cycles of the last four ACTIVATEs, oldest first (tFAW window).
        self._activate_history: deque = deque(maxlen=4)
        # The ACT gate: the earliest next ACTIVATE to any bank, the
        # later of tRRD after the last and tFAW after the fourth-last;
        # written when an ACTIVATE issues.
        self._next_activate_rank = 0
        self._next_read_rank = 0  # tWTR gate
        self.refresh_count = 0
