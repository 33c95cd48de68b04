"""Memory transactions: the unit that flows core → DRAM → core.

A transaction carries a timestamp trail covering every probe point in
the paper's Figure 5 (SC1..SC5).  The security analysis package builds
inter-arrival histograms from these trails, so each stage of the
pipeline stamps the transaction as it passes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from repro.dram.address import DecodedAddress

# Process-global id source.  A plain integer (not itertools.count) so
# checkpoint/restore can query and re-seed it: a run resumed in a fresh
# process must hand out exactly the ids the uninterrupted run would
# have (see repro.resilience.snapshot).
_next_txn_id = 0


def _allocate_txn_id() -> int:
    global _next_txn_id
    allocated = _next_txn_id
    _next_txn_id += 1
    return allocated


def txn_id_watermark() -> int:
    """The id the next transaction will receive (snapshot metadata)."""
    return _next_txn_id


def advance_txn_id_watermark(watermark: int) -> None:
    """Raise the id counter to at least ``watermark`` (snapshot restore).

    Never lowers it: restoring an old snapshot into a process that has
    since allocated further ids must not mint duplicates.
    """
    global _next_txn_id
    if watermark > _next_txn_id:
        _next_txn_id = watermark


class TransactionType(Enum):
    """Read/write, and whether the transaction is shaper-generated."""

    READ = "read"
    WRITE = "write"
    FAKE_READ = "fake_read"

    @property
    def is_write(self) -> bool:
        return self is TransactionType.WRITE

    @property
    def is_fake(self) -> bool:
        return self is TransactionType.FAKE_READ


@dataclass
class MemoryTransaction:
    """One memory access with its full timestamp trail.

    Timestamps are ``None`` until the corresponding pipeline stage is
    reached.  ``created_cycle`` is when the LLC miss occurred (the
    *intrinsic* event); ``shaper_release_cycle`` is when the request
    shaper let it out (the *shaped* event); the difference is the
    shaping delay Camouflage trades for security.
    """

    core_id: int
    address: int
    kind: TransactionType
    created_cycle: int
    txn_id: int = field(default_factory=_allocate_txn_id)
    decoded: Optional[DecodedAddress] = None

    # Timestamp trail (filled in as the transaction advances).
    shaper_release_cycle: Optional[int] = None
    mc_arrival_cycle: Optional[int] = None
    issue_cycle: Optional[int] = None
    data_ready_cycle: Optional[int] = None
    response_release_cycle: Optional[int] = None
    delivered_cycle: Optional[int] = None

    # Set by schedulers for bookkeeping.
    was_row_hit: Optional[bool] = None

    # The resolved DRAM target (a ``BankTarget``) while the transaction
    # is queued: set at controller enqueue, or by :meth:`resolve` on
    # first use for one built by hand.  Not a field, so equality and
    # ``repr`` ignore it.
    _target = None

    def resolve(self, dram):
        """Resolve (and keep) the bank :attr:`decoded` targets."""
        target = self._target = dram.target(self.decoded, self.is_write)
        return target

    @property
    def is_write(self) -> bool:
        return self.kind is TransactionType.WRITE

    @property
    def is_fake(self) -> bool:
        return self.kind is TransactionType.FAKE_READ

    @property
    def queueing_delay(self) -> Optional[int]:
        """Cycles spent waiting in the controller's transaction queue."""
        if self.issue_cycle is None or self.mc_arrival_cycle is None:
            return None
        return self.issue_cycle - self.mc_arrival_cycle

    @property
    def memory_latency(self) -> Optional[int]:
        """Cycles from LLC miss until the response was delivered."""
        if self.delivered_cycle is None:
            return None
        return self.delivered_cycle - self.created_cycle

    @property
    def shaping_delay(self) -> Optional[int]:
        """Cycles the request shaper held this transaction."""
        if self.shaper_release_cycle is None:
            return None
        return self.shaper_release_cycle - self.created_cycle

    def __repr__(self) -> str:  # pragma: no cover - debugging sugar
        return (
            f"MemoryTransaction(id={self.txn_id}, core={self.core_id}, "
            f"addr={self.address:#x}, kind={self.kind.value}, "
            f"created={self.created_cycle})"
        )
