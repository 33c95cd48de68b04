"""Leakage curves: the Figure 9 instrument.

Figure 9 plots the *accumulated response-time difference* between two
runs of the same adversary, one co-scheduled with astar×3 and one with
mcf×3.  Under FR-FCFS the curve grows without bound (every one of the
adversary's requests is slower next to mcf), revealing the co-runner;
under Response Camouflage it stays flat.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence, Tuple

from repro.common.errors import ConfigurationError
from repro.sim.stats import CoreStats

if TYPE_CHECKING:
    import numpy as np


def accumulated_response_difference(
    stats_a: CoreStats, stats_b: CoreStats
) -> np.ndarray:
    """Per-request cumulative latency difference between two runs.

    Both runs must be of the same adversary program; the i-th entry is
    ``Σ_{j<=i} lat_a[j] − Σ_{j<=i} lat_b[j]``, truncated to the shorter
    run.  A curve near zero means the adversary's response timing does
    not depend on the co-runner — the security property RespC provides.
    """
    a = stats_a.accumulated_response_time()
    b = stats_b.accumulated_response_time()
    n = min(a.size, b.size)
    if n == 0:
        raise ConfigurationError(
            "both runs need at least one delivered response"
        )
    return a[:n] - b[:n]


def response_rate_series(
    response_times: Sequence[Tuple[int, int]],
    window_cycles: int,
    total_cycles: int,
) -> np.ndarray:
    """Responses delivered per window (the adversary's rate probe)."""
    import numpy as np

    if window_cycles <= 0:
        raise ConfigurationError("window_cycles must be positive")
    num_windows = max(1, total_cycles // window_cycles)
    series = np.zeros(num_windows, dtype=np.int64)
    for delivered_cycle, _latency in response_times:
        index = delivered_cycle // window_cycles
        if 0 <= index < num_windows:
            series[index] += 1
    return series


def max_abs_drift(difference_curve: np.ndarray) -> float:
    """Largest absolute excursion of a Figure-9 style curve."""
    import numpy as np

    if difference_curve.size == 0:
        return 0.0
    return float(np.abs(difference_curve).max())


def normalized_drift(difference_curve: np.ndarray,
                     baseline_total: float) -> float:
    """Final drift as a fraction of the baseline's total response time.

    Lets tests compare 'flat' (Camouflage) against 'growing' (FR-FCFS)
    without depending on absolute cycle counts.
    """
    if baseline_total <= 0:
        raise ConfigurationError("baseline_total must be positive")
    if difference_curve.size == 0:
        return 0.0
    return float(abs(difference_curve[-1])) / baseline_total
