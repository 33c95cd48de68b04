"""Bounded transaction queue with arrival-order iteration.

Models the controller's transaction queue (32 entries in the paper's
Table II).  Entries stay in arrival order — schedulers that need
"oldest first" tie-breaking simply iterate.  The queue exposes
``is_full`` for upstream backpressure: when it is full the NoC holds
requests, which in turn stalls the shapers and ultimately the cores,
propagating contention exactly the way the timing channel needs it to.
"""

from __future__ import annotations

from typing import Dict, Iterator, List

from repro.common.errors import (
    ConfigurationError,
    ProtocolError,
    QueueOverflowError,
)
from repro.memctrl.transaction import MemoryTransaction


class TransactionQueue:
    """FIFO-ordered bounded buffer of in-flight transactions."""

    def __init__(self, capacity: int = 32) -> None:
        if capacity <= 0:
            raise ConfigurationError(f"queue capacity must be positive: {capacity}")
        self._capacity = capacity
        self._entries: List[MemoryTransaction] = []
        # Queued transactions per core (absent when zero), maintained
        # by push/remove so a per-core count never scans the entries.
        self._per_core: Dict[int, int] = {}

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[MemoryTransaction]:
        """Iterate in arrival order (oldest first)."""
        return iter(self._entries)

    @property
    def is_full(self) -> bool:
        return len(self._entries) >= self._capacity

    @property
    def is_empty(self) -> bool:
        return not self._entries

    def push(self, txn: MemoryTransaction) -> None:
        """Append a transaction; caller must respect ``is_full``.

        The capacity bound is the backpressure contract: a full queue
        stalls the NoC, the shapers and ultimately the cores.  Pushing
        past it is a producer bug, rejected loudly rather than modelled
        as silent unbounded growth.
        """
        if self.is_full:
            raise QueueOverflowError(
                f"push of transaction {txn.txn_id} (core {txn.core_id}) "
                f"into a full transaction queue "
                f"({len(self._entries)}/{self._capacity} entries); the "
                f"producer must respect is_full backpressure",
                capacity=self._capacity,
                depth=len(self._entries),
            )
        self._entries.append(txn)
        self._per_core[txn.core_id] = self._per_core.get(txn.core_id, 0) + 1

    def remove(self, txn: MemoryTransaction) -> None:
        """Remove a (scheduled) transaction from the queue.

        Matched by identity: the scheduler hands back the very object
        it was shown, and field-by-field equality costs a 13-field
        comparison per entry probed.
        """
        for index, entry in enumerate(self._entries):
            if entry is txn:
                break
        else:
            raise ProtocolError(
                f"transaction {txn.txn_id} not present in the queue"
            )
        del self._entries[index]
        left = self._per_core[txn.core_id] - 1
        if left:
            self._per_core[txn.core_id] = left
        else:
            del self._per_core[txn.core_id]

    def count_for_core(self, core_id: int) -> int:
        """Number of queued transactions belonging to ``core_id``."""
        return self._per_core.get(core_id, 0)
