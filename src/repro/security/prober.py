"""The fine-grained probing adversary of section IV-B4.

The paper's worst-case within-window adversary issues its own probe
requests at controlled times and watches which of them get delayed:
"if its request is delayed, it knows the victim had a request at the
same time".  Leakage through this channel is bounded by the number of
credits the adversary can spend per replenishment window.

This module provides:

* :func:`prober_trace` — a steady stream of guaranteed-miss probe
  requests (the adversary's half of the experiment);
* :func:`classify_conflicts` — turn the prober's per-request
  latencies into binary conflict observations against its unloaded
  baseline;
* :func:`conflict_information` — MI between per-window conflict
  counts and the victim's per-window activity: the bits the prober
  actually extracted, to compare against the analytic bound.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.common.errors import ConfigurationError
from repro.cpu.trace import MemoryTrace, TraceRecord
from repro.security.mutual_information import (
    mutual_information_bits,
    quantize_counts,
    windowed_counts,
)


def prober_trace(
    num_probes: int,
    gap_insts: int = 120,
    line_bytes: int = 64,
    base_address: int = 1 << 36,
    row_stride_bytes: int = 64 * 1024,
) -> MemoryTrace:
    """A steady stream of guaranteed-miss probes.

    Each probe strides a full ``row_stride_bytes`` so it never hits a
    cache and lands in fresh DRAM rows — probe latency then reflects
    *contention*, not the prober's own locality.
    """
    if num_probes <= 0:
        raise ConfigurationError("num_probes must be positive")
    if gap_insts < 0:
        raise ConfigurationError("gap_insts must be non-negative")
    records = [
        TraceRecord(
            nonmem_insts=gap_insts,
            address=base_address + i * row_stride_bytes,
            is_write=False,
        )
        for i in range(num_probes)
    ]
    return MemoryTrace(records, name="prober")


def classify_conflicts(
    response_times: Sequence[Tuple[int, int]],
    baseline_latency: float,
    slack: float = 1.3,
) -> List[Tuple[int, int]]:
    """Label each probe as conflicted (1) or clean (0).

    ``response_times`` are the prober's (delivered_cycle, latency)
    pairs; a probe is *conflicted* when its latency exceeds
    ``slack × baseline_latency`` (the unloaded service time measured
    by running the prober alone).
    """
    if baseline_latency <= 0:
        raise ConfigurationError("baseline_latency must be positive")
    if slack < 1.0:
        raise ConfigurationError("slack must be >= 1")
    threshold = baseline_latency * slack
    return [
        (cycle, 1 if latency > threshold else 0)
        for cycle, latency in response_times
    ]


def conflict_information(
    conflicts: Sequence[Tuple[int, int]],
    victim_times: Sequence[int],
    window_cycles: int,
    total_cycles: int,
    quantization_levels: int = 4,
    bias_correction: bool = True,
) -> float:
    """Bits per window the prober's conflicts say about the victim.

    X = victim requests per window (quantized), Y = prober conflict
    count per window; returns the plug-in MI (Miller–Madow corrected
    by default).  Compare against
    :func:`repro.security.bounds.replenishment_window_leakage_bound`.
    """
    if window_cycles <= 0:
        raise ConfigurationError("window_cycles must be positive")
    num_windows = max(1, total_cycles // window_cycles)
    victim = windowed_counts(victim_times, window_cycles, num_windows)
    conflict_counts = windowed_counts(
        [cycle for cycle, conflicted in conflicts if conflicted],
        window_cycles, num_windows,
    )
    return mutual_information_bits(
        quantize_counts(victim, quantization_levels),
        quantize_counts(conflict_counts, quantization_levels),
        bias_correction=bias_correction,
    )
