"""repro.parallel: deterministic fan-out + content-addressed caching.

The throughput layer for the paper's sweep-shaped experiments
(Figures 2, 10-13): :class:`SweepExecutor` runs independent simulation
points across worker processes and merges results in submission order
— bit-identical output for every ``--jobs`` value — while
:class:`ResultCache` addresses each point's result by a canonical
digest of its inputs, so unchanged points are never re-simulated.
See docs/parallel.md for the determinism contract and the cache-key
anatomy.
"""

from repro.parallel.cache import (
    CACHE_SCHEMA,
    CacheEntry,
    ResultCache,
    cache_key,
    config_digest,
)
from repro.parallel.dispatch import (
    ChaosProxy,
    DispatchCoordinator,
    FrameCorruption,
    HostCrash,
    LinkStall,
    SlowHost,
    parse_hosts,
)
from repro.parallel.executor import SweepExecutor
from repro.parallel.ledger import DispatchLedger
from repro.parallel.worker import WorkerHost

__all__ = [
    "CACHE_SCHEMA",
    "CacheEntry",
    "ResultCache",
    "cache_key",
    "config_digest",
    "ChaosProxy",
    "DispatchCoordinator",
    "FrameCorruption",
    "HostCrash",
    "LinkStall",
    "SlowHost",
    "parse_hosts",
    "SweepExecutor",
    "DispatchLedger",
    "WorkerHost",
]
