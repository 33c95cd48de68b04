"""repro.parallel: deterministic fan-out + content-addressed caching.

The throughput layer for the paper's sweep-shaped experiments
(Figures 2, 10-13): :class:`SweepExecutor` runs independent simulation
points on the calling thread and a warm pool of worker processes on
one machine, and merges results in submission order — bit-identical
output for every ``--jobs`` value — while
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
from repro.parallel.executor import SweepExecutor

__all__ = [
    "CACHE_SCHEMA",
    "CacheEntry",
    "ResultCache",
    "cache_key",
    "config_digest",
    "SweepExecutor",
]
