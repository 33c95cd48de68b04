"""Memory controller: transaction queue, schedulers, command engine.

This package implements the shared memory controller the paper's
threat model revolves around, plus every scheduling baseline the
evaluation compares against:

* :class:`FrFcfsScheduler` — First-Ready First-Come-First-Serve, the
  unprotected high-performance baseline (row hits first, then oldest).
* :class:`PriorityFrFcfsScheduler` — FR-FCFS with per-core priority
  boosts; the RespC shaper raises a core's boost in proportion to its
  unused credits (paper section III-B1), and the MISE slowdown
  estimator uses its exclusive "highest priority mode".
* :class:`TemporalPartitioningScheduler` — fixed-length turns per
  security domain (Wang et al., HPCA 2014).
* :class:`FixedServiceScheduler` — constant per-thread issue rate
  (Shafiee et al., MICRO 2015), optionally paired with bank
  partitioning via :meth:`repro.dram.AddressMapping.partitioned`.
"""

from repro.memctrl.controller import MemoryController
from repro.memctrl.schedulers import (
    FixedServiceScheduler,
    FrFcfsScheduler,
    PriorityFrFcfsScheduler,
    Scheduler,
    TemporalPartitioningScheduler,
)
from repro.memctrl.transaction import MemoryTransaction, TransactionType
from repro.memctrl.queue import TransactionQueue

__all__ = [
    "FixedServiceScheduler",
    "FrFcfsScheduler",
    "MemoryController",
    "MemoryTransaction",
    "PriorityFrFcfsScheduler",
    "Scheduler",
    "TemporalPartitioningScheduler",
    "TransactionQueue",
    "TransactionType",
]
