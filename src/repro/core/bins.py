"""Bin geometry and credit distributions.

The Camouflage hardware (paper section III-A1) has N bins; bin *k*
holds credits for memory transactions issued with inter-arrival time
falling in bin *k*'s interval.  We model the paper's design point:
**ten bins** with exponentially spaced interval edges and **10-bit
credit registers** (max 1023 credits per bin).

``BinConfiguration`` is the value the hypervisor writes into the
shaper's control registers: credits-per-bin to replenish each period.
It also doubles as the genome of the genetic algorithm (section IV-C).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.common.errors import ConfigurationError

#: Hardware limit of one credit register (10 bits, section III-A3).
MAX_CREDITS_PER_BIN = 1023

#: The paper's design point: ten bins.
DEFAULT_NUM_BINS = 10

#: Default exponential inter-arrival edges (cycles): bin k covers
#: inter-arrival times in [edges[k], edges[k+1]), last bin is open.
DEFAULT_EDGES: Tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)


@dataclass(frozen=True)
class BinSpec:
    """Geometry of the shaper's bins: interval edges and replenish period.

    ``edges[k]`` is the smallest inter-arrival time (in cycles) that
    falls into bin ``k``; bin ``k`` covers ``[edges[k], edges[k+1])``
    and the last bin is open-ended.  ``replenish_period`` is the fixed
    period at which credit registers are reloaded (section III-A2).
    """

    edges: Tuple[int, ...] = DEFAULT_EDGES
    replenish_period: int = 2048

    def __post_init__(self) -> None:
        if len(self.edges) < 1:
            raise ConfigurationError("at least one bin is required")
        if self.edges[0] < 1:
            raise ConfigurationError("the smallest edge must be >= 1 cycle")
        for a, b in zip(self.edges, self.edges[1:]):
            if b <= a:
                raise ConfigurationError(
                    f"bin edges must be strictly increasing, got {self.edges}"
                )
        if self.replenish_period < self.edges[-1]:
            raise ConfigurationError(
                "replenish period must cover the largest bin edge "
                f"({self.replenish_period} < {self.edges[-1]})"
            )

    @property
    def num_bins(self) -> int:
        return len(self.edges)

    def bin_of(self, inter_arrival: int) -> int:
        """Index of the bin containing ``inter_arrival`` (cycles).

        Inter-arrival times below the smallest edge map to bin 0 —
        hardware cannot distinguish sub-minimum gaps, it simply treats
        back-to-back transactions as the fastest bin.
        """
        if inter_arrival < 0:
            raise ConfigurationError(
                f"negative inter-arrival time {inter_arrival}"
            )
        # Bisection: called in the hot loop, and on ten edges it is
        # faster than a linear scan of the tuple.
        return max(0, bisect_right(self.edges, inter_arrival) - 1)

    def max_bandwidth_fraction(self, config: "BinConfiguration") -> float:
        """Upper bound on channel occupancy this config permits.

        Each credit in bin ``k`` stands for one transaction at least
        ``edges[k]`` cycles after the previous one, so total time to
        spend all credits is ``sum(credits[k] * edges[k])``; dividing
        by the replenish period bounds the issue-rate the shaper can
        sustain (transactions per cycle).
        """
        cycles_needed = sum(
            credits * edge for credits, edge in zip(config.credits, self.edges)
        )
        return cycles_needed / self.replenish_period


@dataclass(frozen=True)
class BinConfiguration:
    """Credits replenished into each bin every period (the register file)."""

    credits: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.credits:
            raise ConfigurationError("credit vector must not be empty")
        for k, c in enumerate(self.credits):
            if not 0 <= c <= MAX_CREDITS_PER_BIN:
                raise ConfigurationError(
                    f"bin {k} credits {c} outside 0..{MAX_CREDITS_PER_BIN} "
                    "(10-bit hardware register)"
                )
        if sum(self.credits) == 0:
            raise ConfigurationError(
                "at least one credit is required or the shaper deadlocks"
            )

    @property
    def num_bins(self) -> int:
        return len(self.credits)

    @property
    def total_credits(self) -> int:
        return sum(self.credits)

    def normalized(self) -> Tuple[float, ...]:
        """Credit distribution as frequencies summing to 1."""
        total = self.total_credits
        return tuple(c / total for c in self.credits)

    def with_bin(self, index: int, credits: int) -> "BinConfiguration":
        """A copy with one bin's credit count replaced."""
        if not 0 <= index < len(self.credits):
            raise ConfigurationError(f"bin index {index} out of range")
        updated = list(self.credits)
        updated[index] = credits
        return BinConfiguration(tuple(updated))


def constant_rate_config(
    spec: BinSpec, interval: int
) -> BinConfiguration:
    """The CS baseline: all credits in the single bin for ``interval``.

    Configures the shaper to release at a strictly constant rate of one
    transaction per ``interval`` cycles — the Ascend/Fletcher'14 design
    point the paper describes as a degenerate Camouflage configuration
    ("Camouflage can be configured to be a constant rate shaper by
    using only one bin").
    """
    if interval < spec.edges[0]:
        raise ConfigurationError(
            f"constant-rate interval {interval} below the smallest edge"
        )
    target_bin = spec.bin_of(interval)
    if spec.edges[target_bin] != interval:
        raise ConfigurationError(
            f"constant-rate interval {interval} must equal a bin edge "
            f"(edges: {spec.edges}) so the release rate is exact"
        )
    credits = [0] * spec.num_bins
    count = spec.replenish_period // interval
    credits[target_bin] = min(count, MAX_CREDITS_PER_BIN)
    return BinConfiguration(tuple(credits))


def uniform_config(spec: BinSpec, credits_per_bin: int) -> BinConfiguration:
    """Equal credits in every bin (a permissive starting distribution)."""
    if credits_per_bin <= 0:
        raise ConfigurationError("credits_per_bin must be positive")
    return BinConfiguration(tuple([credits_per_bin] * spec.num_bins))
