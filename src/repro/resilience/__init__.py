"""repro.resilience: checkpoint/restore, stall watchdog, fault harness.

The robustness layer (DESIGN.md §4, docs/resilience.md): deterministic
whole-system snapshots so long runs survive restarts bit-identically,
a forward-progress watchdog with structured diagnostic dumps, and a
fault-injection harness proving each fault ends typed or bounded.
"""

from repro.resilience.faults import (
    EpochBoundaryStress,
    FaultInjector,
    LinkStall,
    QueueSaturation,
    TrafficBurst,
)
from repro.resilience.runtime import ResilienceConfig, ResilienceRuntime
from repro.resilience.scenarios import run_scenario, scenario_names
from repro.resilience.snapshot import (
    SNAPSHOT_VERSION,
    atomic_write_bytes,
    load_snapshot,
    read_snapshot_info,
    restore_system,
    save_snapshot,
    snapshot_system,
)
from repro.resilience.watchdog import Watchdog, diagnostic_dump

__all__ = [
    "EpochBoundaryStress",
    "FaultInjector",
    "LinkStall",
    "QueueSaturation",
    "TrafficBurst",
    "ResilienceConfig",
    "ResilienceRuntime",
    "run_scenario",
    "scenario_names",
    "SNAPSHOT_VERSION",
    "atomic_write_bytes",
    "load_snapshot",
    "read_snapshot_info",
    "restore_system",
    "save_snapshot",
    "snapshot_system",
    "Watchdog",
    "diagnostic_dump",
]
