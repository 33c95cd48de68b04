"""Mutual-information estimation (paper section IV-B).

The paper uses mutual information between the intrinsic and shaped
traffic as its leakage metric:

    I(X; Y) = Σ_x Σ_y p(x, y) · log( p(x, y) / (p(x) p(y)) )

All estimators here are plug-in (empirical joint histogram), with
logarithms base 2 so results read in bits.  Three views are provided:

* :func:`mutual_information_bits` — generic, from paired discrete
  sequences.
* :func:`interarrival_mi` — the section IV-B2 measurement: pair the
  i-th intrinsic request's inter-arrival bin with the i-th shaped
  (real) release's inter-arrival bin.
* :func:`windowed_rate_mi` — the attacker's practical statistic: MI
  between per-window event counts of the intrinsic and the observed
  (shaped, fake-inclusive) streams.  This is the quantity fake traffic
  is designed to destroy.  :func:`gap_rate_mi` is its one gap-sequence
  entry point, the ``mi_bits`` of every leakage score.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Optional, Sequence

import numpy as np

from repro.common.errors import ConfigurationError
from repro.core.bins import BinSpec


def entropy_bits(samples: Sequence[int]) -> float:
    """Empirical Shannon entropy (bits) of a discrete sample sequence."""
    samples = np.asarray(samples)
    if samples.size == 0:
        return 0.0
    _, counts = np.unique(samples, return_counts=True)
    p = counts / counts.sum()
    return float(-(p * np.log2(p)).sum())


def mutual_information_bits(
    x: Sequence[int], y: Sequence[int], bias_correction: bool = False
) -> float:
    """Plug-in MI (bits) between two equal-length discrete sequences.

    ``bias_correction`` applies the Miller–Madow correction
    ``(Kx−1)(Ky−1) / (2N ln 2)``: the plug-in estimator is biased
    upward by roughly that much for finite samples, which matters when
    asserting near-zero leakage from short simulation runs (the paper's
    0.002-bit numbers come from much longer traces).
    """
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape != y.shape:
        raise ConfigurationError(
            f"paired sequences must have equal length ({x.size} vs {y.size})"
        )
    if x.size == 0:
        return 0.0
    x_values, x_codes = np.unique(x, return_inverse=True)
    y_values, y_codes = np.unique(y, return_inverse=True)
    joint = np.zeros((x_values.size, y_values.size))
    np.add.at(joint, (x_codes, y_codes), 1.0)
    joint /= joint.sum()
    px = joint.sum(axis=1, keepdims=True)
    py = joint.sum(axis=0, keepdims=True)
    mask = joint > 0
    ratio = np.where(mask, joint / (px @ py), 1.0)
    mi = float((joint[mask] * np.log2(ratio[mask])).sum())
    if bias_correction:
        bias = (
            (x_values.size - 1) * (y_values.size - 1)
            / (2.0 * x.size * np.log(2.0))
        )
        mi -= bias
    # Clip negative values (floating-point rounding / over-correction).
    return max(0.0, mi)


def interarrival_mi(
    intrinsic_gaps: Sequence[int],
    shaped_gaps: Sequence[int],
    spec: Optional[BinSpec] = None,
    bias_correction: bool = False,
) -> float:
    """MI between binned intrinsic and shaped inter-arrival sequences.

    Gaps are quantized into the shaper's bin geometry (the paper's
    "ten different intervals") and paired positionally: the i-th real
    transaction's intrinsic gap against its i-th shaped gap.  Sequences
    of unequal length are truncated to the shorter one (transactions
    still in flight at the end of a run have no shaped counterpart).
    """
    spec = spec or BinSpec()
    n = min(len(intrinsic_gaps), len(shaped_gaps))
    if n == 0:
        return 0.0
    x = [spec.bin_of(g) for g in intrinsic_gaps[:n]]
    y = [spec.bin_of(g) for g in shaped_gaps[:n]]
    return mutual_information_bits(x, y, bias_correction=bias_correction)


def windowed_counts(
    timestamps: Sequence[int], window_cycles: int, num_windows: int,
    start_cycle: int = 0,
) -> np.ndarray:
    """Event counts per fixed window (the bus prober's histogram).

    Windows follow the half-open convention ``[start, start+w)`` with
    the rightmost edge *closed*: a release landing exactly on
    ``start_cycle + num_windows * window_cycles`` belongs to the last
    window rather than being silently dropped (events strictly beyond
    that edge remain outside the histogram).
    """
    if window_cycles <= 0:
        raise ConfigurationError("window_cycles must be positive")
    if num_windows <= 0:
        raise ConfigurationError("num_windows must be positive")
    counts = np.zeros(num_windows, dtype=np.int64)
    right_edge = start_cycle + num_windows * window_cycles
    for t in timestamps:
        if t == right_edge:
            counts[num_windows - 1] += 1
            continue
        index = (t - start_cycle) // window_cycles
        if 0 <= index < num_windows:
            counts[index] += 1
    return counts


def quantize_counts(counts: np.ndarray, levels: int) -> np.ndarray:
    """Snap per-window counts onto ``levels`` evenly spaced levels (an
    adversary's measurement granularity); integer division keeps them
    discrete."""
    top = counts.max()
    if top == 0:
        return np.zeros_like(counts)
    return (counts * (levels - 1) + top // 2) // top


def windowed_rate_mi(
    intrinsic_times: Sequence[int],
    observed_times: Sequence[int],
    window_cycles: int,
    total_cycles: int,
    quantization_levels: int = 8,
    bias_correction: bool = False,
) -> float:
    """MI between intrinsic and observed per-window traffic rates.

    Counts are quantized to ``quantization_levels`` evenly spaced
    levels (:func:`quantize_counts`); the result is the information
    (bits per window) the observed stream carries about the intrinsic
    one.
    """
    num_windows = max(1, total_cycles // window_cycles)
    x = windowed_counts(intrinsic_times, window_cycles, num_windows)
    y = windowed_counts(observed_times, window_cycles, num_windows)
    return mutual_information_bits(
        quantize_counts(x, quantization_levels),
        quantize_counts(y, quantization_levels),
        bias_correction=bias_correction,
    )


def gap_rate_mi(
    intrinsic_gaps: Sequence[int],
    observed_gaps: Sequence[int],
    window_cycles: int,
    run_cycles: int,
) -> float:
    """:func:`windowed_rate_mi` of two inter-arrival gap sequences.

    Event times are the raw gaps' running sums (no bin quantization),
    windowed over ``run_cycles``; Miller–Madow ``bias_correction`` is
    always on, so every point of a curve, anchors included, uses one
    estimator configuration.
    """
    return windowed_rate_mi(
        list(accumulate(intrinsic_gaps)), list(accumulate(observed_gaps)),
        window_cycles, run_cycles, bias_correction=True,
    )
