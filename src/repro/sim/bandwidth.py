"""Bandwidth accounting over link grant traces.

Utilities to turn a link's ``(cycle, port, transaction)`` grant trace
into per-core bandwidth series and utilization summaries — the raw
material of the paper's traffic plots (Figures 14/15 are exactly a
per-window bandwidth series of one core).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from repro.common.errors import ConfigurationError

if TYPE_CHECKING:
    import numpy as np


def bandwidth_series(
    grant_trace: Sequence[Tuple[int, int, object]],
    window_cycles: int,
    total_cycles: int,
    port: int = None,
    line_bytes: int = 64,
) -> np.ndarray:
    """Bytes transferred per window (optionally for one port only)."""
    import numpy as np

    if window_cycles <= 0:
        raise ConfigurationError("window_cycles must be positive")
    if total_cycles <= 0:
        raise ConfigurationError("total_cycles must be positive")
    num_windows = max(1, total_cycles // window_cycles)
    series = np.zeros(num_windows, dtype=np.int64)
    for cycle, grant_port, _txn in grant_trace:
        if port is not None and grant_port != port:
            continue
        index = cycle // window_cycles
        if 0 <= index < num_windows:
            series[index] += line_bytes
    return series


def per_core_bandwidth(
    grant_trace: Sequence[Tuple[int, int, object]],
    total_cycles: int,
    line_bytes: int = 64,
) -> Dict[int, float]:
    """Average bytes/cycle per port over the whole run."""
    if total_cycles <= 0:
        raise ConfigurationError("total_cycles must be positive")
    totals: Dict[int, int] = {}
    for _cycle, port, _txn in grant_trace:
        totals[port] = totals.get(port, 0) + line_bytes
    return {port: total / total_cycles for port, total in totals.items()}


def fake_traffic_fraction(
    grant_trace: Sequence[Tuple[int, int, object]],
    port: int = None,
) -> float:
    """Fraction of granted transactions that were fake.

    The cost side of Camouflage's ledger: every fake grant is
    bandwidth spent purely on hiding.
    """
    total = 0
    fake = 0
    for _cycle, grant_port, txn in grant_trace:
        if port is not None and grant_port != port:
            continue
        total += 1
        if getattr(txn, "is_fake", False):
            fake += 1
    return fake / total if total else 0.0


def utilization(
    grant_trace: Sequence[Tuple[int, int, object]],
    total_cycles: int,
) -> float:
    """Fraction of cycles the link granted a transaction."""
    if total_cycles <= 0:
        raise ConfigurationError("total_cycles must be positive")
    return min(1.0, len(grant_trace) / total_cycles)


def burstiness_index(series: Sequence[float]) -> float:
    """Coefficient of variation of a bandwidth series.

    ~0 for shaped constant traffic, large for ON/OFF patterns — a
    scalar summary of what shaping did to the envelope.
    """
    import numpy as np

    values = np.asarray(series, dtype=float)
    if values.size == 0:
        return 0.0
    mean = values.mean()
    if mean == 0:
        return 0.0
    return float(values.std() / mean)
