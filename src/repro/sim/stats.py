"""Statistics collection for full-system runs.

Every delivered response and every link grant is timestamped; the
report aggregates them into the quantities the paper's figures are
built from: per-core IPC, memory latencies, request/response
inter-arrival histograms (intrinsic and shaped), fake-traffic volume
and row-hit rates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.common.util import canonical_json_digest
from repro.core.distribution import InterArrivalHistogram
from repro.memctrl.transaction import MemoryTransaction

if TYPE_CHECKING:
    import numpy as np


@dataclass
class CoreStats:
    """Aggregated per-core results of one run."""

    core_id: int
    trace_name: str
    cycles: int
    retired_instructions: int
    finish_cycle: Optional[int]
    demand_requests: int
    writeback_requests: int
    fake_requests_sent: int
    fake_responses_sent: int
    memory_stall_cycles: int
    llc_misses: int
    llc_accesses: int
    request_intrinsic: InterArrivalHistogram
    request_shaped: InterArrivalHistogram
    response_intrinsic: InterArrivalHistogram
    response_shaped: InterArrivalHistogram
    memory_latencies: List[int] = field(default_factory=list)
    response_times: List[Tuple[int, int]] = field(default_factory=list)
    """(delivered_cycle, per-request latency) pairs for real responses."""

    @property
    def ipc(self) -> float:
        """Retired instructions per cycle."""
        return self.retired_instructions / self.cycles if self.cycles else 0.0

    @property
    def memory_stall_fraction(self) -> float:
        """MISE's α: fraction of cycles stalled waiting on memory."""
        return self.memory_stall_cycles / self.cycles if self.cycles else 0.0

    def mean_memory_latency(self) -> float:
        if not self.memory_latencies:
            return 0.0
        import numpy as np

        return float(np.mean(self.memory_latencies))

    def latency_percentile(self, q: float) -> float:
        if not self.memory_latencies:
            return 0.0
        import numpy as np

        return float(np.percentile(self.memory_latencies, q))

    def accumulated_response_time(self) -> np.ndarray:
        """Cumulative sum of per-request latencies, in delivery order.

        The Figure 9 quantity: differencing two runs' accumulated
        response-time curves reveals (or, under Camouflage, hides) the
        co-runner's behaviour.
        """
        import numpy as np

        if not self.response_times:
            return np.zeros(0)
        ordered = sorted(self.response_times)
        return np.cumsum([lat for _, lat in ordered])


@dataclass
class SystemReport:
    """Results of one full-system run."""

    cycles_run: int
    cores: List[CoreStats]
    row_hits: int
    row_misses: int
    refreshes: int
    request_link_grants: int
    response_link_grants: int
    scheduler_name: str

    def core(self, core_id: int) -> CoreStats:
        return self.cores[core_id]

    @property
    def num_cores(self) -> int:
        return len(self.cores)

    def total_throughput(self) -> float:
        """Sum of per-core IPCs (the multiprogram throughput metric)."""
        return sum(c.ipc for c in self.cores)

    def weighted_speedup_vs(self, alone_ipcs: Sequence[float]) -> float:
        """Sum of IPC_shared / IPC_alone across cores."""
        if len(alone_ipcs) != len(self.cores):
            raise ValueError("need one alone-IPC per core")
        return sum(
            c.ipc / alone if alone > 0 else 0.0
            for c, alone in zip(self.cores, alone_ipcs)
        )

    def average_slowdown_vs(self, alone_ipcs: Sequence[float]) -> float:
        """Mean of IPC_alone / IPC_shared (the paper's GA objective)."""
        if len(alone_ipcs) != len(self.cores):
            raise ValueError("need one alone-IPC per core")
        import numpy as np

        slowdowns = []
        for c, alone in zip(self.cores, alone_ipcs):
            if c.ipc > 0:
                slowdowns.append(alone / c.ipc)
        return float(np.mean(slowdowns)) if slowdowns else float("inf")

    def row_hit_rate(self) -> float:
        total = self.row_hits + self.row_misses
        return self.row_hits / total if total else 0.0

    def summary_lines(self) -> List[str]:
        """Human-readable per-core summary (used by examples)."""
        lines = [
            f"cycles={self.cycles_run} scheduler={self.scheduler_name} "
            f"row_hit_rate={self.row_hit_rate():.2f}"
        ]
        for c in self.cores:
            lines.append(
                f"  core{c.core_id} [{c.trace_name}] ipc={c.ipc:.3f} "
                f"misses={c.llc_misses} fake_req={c.fake_requests_sent} "
                f"mem_lat={c.mean_memory_latency():.0f}"
            )
        return lines


def report_digest(report: SystemReport) -> str:
    """A short deterministic fingerprint over everything in a report.

    Two reports digest equal iff every counter, histogram bin, latency
    sample and response timestamp matches — ``repro run`` prints it and
    ``repro resume`` prints it again so the bit-identical-resume
    guarantee (docs/resilience.md) is checkable from the command line.
    The same canonical-JSON fingerprinting, applied to run *inputs*
    instead of outputs, keys the parallel result cache
    (:func:`repro.parallel.cache.config_digest`).
    """
    doc = {
        "cycles_run": report.cycles_run,
        "row_hits": report.row_hits,
        "row_misses": report.row_misses,
        "refreshes": report.refreshes,
        "request_link_grants": report.request_link_grants,
        "response_link_grants": report.response_link_grants,
        "scheduler": report.scheduler_name,
        "cores": [
            {
                "core_id": c.core_id,
                "trace": c.trace_name,
                "cycles": c.cycles,
                "retired": c.retired_instructions,
                "finish": c.finish_cycle,
                "demand": c.demand_requests,
                "writebacks": c.writeback_requests,
                "fake_req": c.fake_requests_sent,
                "fake_resp": c.fake_responses_sent,
                "stalls": c.memory_stall_cycles,
                "llc_misses": c.llc_misses,
                "llc_accesses": c.llc_accesses,
                "request_intrinsic": list(c.request_intrinsic.counts),
                "request_shaped": list(c.request_shaped.counts),
                "response_intrinsic": list(c.response_intrinsic.counts),
                "response_shaped": list(c.response_shaped.counts),
                "latencies": list(c.memory_latencies),
                "response_times": [list(rt) for rt in c.response_times],
            }
            for c in report.cores
        ],
    }
    return canonical_json_digest(doc)
