"""Attack implementations: covert-channel decoding and side-channel
co-runner distinguishing.

These are the adversary's half of the paper's empirical evaluations:

* The covert-channel **receiver** (Figures 14/15): given the bus-event
  timeline of the sender's security domain, recover the key by
  thresholding per-PULSE-window traffic counts.
* The side-channel **distinguisher** (Figure 9 / section IV-D): given
  the adversary's own response-latency series under two different
  co-runners, quantify how separable the two are.  FR-FCFS gives high
  separability; RespC collapses it.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.common.errors import ConfigurationError
from repro.security.mutual_information import windowed_counts


def decode_covert_key(
    event_times: Sequence[int],
    pulse_cycles: int,
    num_bits: int,
    start_cycle: int = 0,
) -> List[int]:
    """Recover key bits from a bus-event timeline.

    Counts events in consecutive ``pulse_cycles`` windows and
    thresholds at the midpoint between the lowest and highest observed
    window count — the optimal detector for a two-level on/off
    encoding.  With Camouflage's shaping the windows all look alike,
    the threshold separates noise from noise, and decoding collapses
    to chance.
    """
    if num_bits <= 0:
        raise ConfigurationError("num_bits must be positive")
    counts = windowed_counts(event_times, pulse_cycles, num_bits, start_cycle)
    low, high = int(counts.min()), int(counts.max())
    threshold = (low + high) / 2.0
    return [1 if c > threshold else 0 for c in counts]


def decode_covert_key_matched(
    event_times: Sequence[int],
    pulse_cycles: int,
    num_bits: int,
    max_phase_shift: Optional[int] = None,
    phase_step: Optional[int] = None,
) -> List[int]:
    """A stronger covert receiver: matched filter with phase search.

    The simple threshold decoder assumes bit boundaries align with its
    windows; a real attacker searches over clock offsets.  This
    decoder slides the window grid forward over ``0..max_phase_shift``
    cycles (default: a full pulse — the listener starts before the
    sender, so the first bit boundary lies ahead) in ``phase_step``
    increments, decodes at each offset, and keeps the offset whose
    window counts are most bimodal (largest separation between the low
    and high clusters) — the maximum-likelihood choice for an on/off
    keying.

    Camouflage must (and does — see the covert benchmarks) defeat this
    decoder too: with a flat envelope there is no offset at which the
    counts separate.
    """
    import numpy as np

    if num_bits <= 0:
        raise ConfigurationError("num_bits must be positive")
    if pulse_cycles <= 0:
        raise ConfigurationError("pulse_cycles must be positive")
    if max_phase_shift is None:
        max_phase_shift = pulse_cycles - 1
    if phase_step is None:
        phase_step = max(1, pulse_cycles // 8)

    best_bits: List[int] = [0] * num_bits
    best_separation = -1.0
    for offset in range(0, max_phase_shift + 1, phase_step):
        counts = windowed_counts(
            event_times, pulse_cycles, num_bits, start_cycle=offset
        )
        sorted_counts = np.sort(counts)
        # Largest gap between consecutive sorted counts = the cluster
        # separation the on/off keying should produce.
        if sorted_counts.size < 2:
            continue
        gaps = np.diff(sorted_counts)
        split = int(np.argmax(gaps))
        separation = float(gaps[split])
        spread = float(sorted_counts[-1] - sorted_counts[0]) or 1.0
        score = separation / spread
        if separation > 0 and score * separation > best_separation:
            threshold = (
                sorted_counts[split] + sorted_counts[split + 1]
            ) / 2.0
            best_separation = score * separation
            best_bits = [1 if c > threshold else 0 for c in counts]
    return best_bits


def bit_error_rate(decoded: Sequence[int], actual: Sequence[int]) -> float:
    """Fraction of differing bits (0 = perfect recovery, 0.5 ≈ chance)."""
    if len(decoded) != len(actual):
        raise ConfigurationError(
            f"bit vectors differ in length ({len(decoded)} vs {len(actual)})"
        )
    if not actual:
        raise ConfigurationError("empty bit vectors")
    errors = sum(1 for d, a in zip(decoded, actual) if d != a)
    return errors / len(actual)


def corunner_distinguishability(
    latencies_a: Sequence[float], latencies_b: Sequence[float]
) -> float:
    """Separability of two latency distributions (Cohen's d style).

    |mean_a − mean_b| / pooled standard deviation.  Values ≫ 0 mean an
    adversary can tell its co-runner changed by timing its own
    responses; values near 0 mean the channel is closed.
    """
    import numpy as np

    a = np.asarray(latencies_a, dtype=float)
    b = np.asarray(latencies_b, dtype=float)
    if a.size == 0 or b.size == 0:
        raise ConfigurationError("latency series must be non-empty")
    pooled_var = (a.var() + b.var()) / 2.0
    if pooled_var == 0:
        # Identical constants: distinguishable iff the means differ.
        return 0.0 if a.mean() == b.mean() else float("inf")
    return float(abs(a.mean() - b.mean()) / np.sqrt(pooled_var))
