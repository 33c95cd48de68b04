"""Inter-arrival time histograms.

The measurement primitive of the whole paper: given a stream of event
timestamps (requests on a bus, responses at a core), bin the gaps
between consecutive events into the shaper's bin geometry.  Both the
security analysis (mutual information between intrinsic and shaped
histograms) and the Figure 11 distribution-accuracy experiment are
computed from these.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError
from repro.core.bins import BinSpec

if TYPE_CHECKING:
    import numpy as np


class InterArrivalHistogram:
    """Streaming histogram of inter-arrival times over a bin spec."""

    def __init__(self, spec: Optional[BinSpec] = None) -> None:
        self.spec = spec or BinSpec()
        self._counts = [0] * self.spec.num_bins
        self._last_timestamp: Optional[int] = None
        self._gaps: List[int] = []

    # -- recording ---------------------------------------------------------

    def record(self, timestamp: int) -> None:
        """Record one event; the gap to the previous event is binned."""
        if self._last_timestamp is not None:
            gap = timestamp - self._last_timestamp
            if gap < 0:
                raise ConfigurationError(
                    f"timestamps must be non-decreasing "
                    f"({timestamp} after {self._last_timestamp})"
                )
            self._counts[self.spec.bin_of(gap)] += 1
            self._gaps.append(gap)
        self._last_timestamp = timestamp

    def record_all(self, timestamps: Iterable[int]) -> None:
        for t in timestamps:
            self.record(t)

    @classmethod
    def from_timestamps(
        cls, timestamps: Iterable[int], spec: Optional[BinSpec] = None
    ) -> "InterArrivalHistogram":
        hist = cls(spec)
        hist.record_all(timestamps)
        return hist

    # -- accessors -----------------------------------------------------------

    @property
    def counts(self) -> Tuple[int, ...]:
        return tuple(self._counts)

    @property
    def gaps(self) -> Sequence[int]:
        """The raw inter-arrival samples, in order."""
        return tuple(self._gaps)

    @property
    def total(self) -> int:
        return sum(self._counts)

    def frequencies(self) -> Tuple[float, ...]:
        """Normalized bin frequencies (all zeros when empty)."""
        total = self.total
        if total == 0:
            return tuple([0.0] * self.spec.num_bins)
        return tuple(c / total for c in self._counts)

    def bin_sequence(self) -> np.ndarray:
        """Each gap mapped to its bin index, as an array (for MI)."""
        import numpy as np

        return np.array([self.spec.bin_of(g) for g in self._gaps], dtype=np.int64)

    # -- comparisons -----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        """Value equality: same spec and same recorded sample stream.

        Without this, dataclasses that embed histograms (CoreStats,
        SystemReport) would fall back to identity comparison and two
        independently-built runs could never compare equal — which is
        exactly what the engine-equivalence tests need to assert.
        """
        if not isinstance(other, InterArrivalHistogram):
            return NotImplemented
        return (
            self.spec == other.spec
            and self._counts == other._counts
            and self._last_timestamp == other._last_timestamp
            and self._gaps == other._gaps
        )

    __hash__ = None  # mutable; keep unhashable like other stat accumulators

    def total_variation_distance(self, other: "InterArrivalHistogram") -> float:
        """TV distance between two normalized histograms (0 = identical)."""
        if self.spec.num_bins != other.spec.num_bins:
            raise ConfigurationError("histograms have different bin counts")
        mine = self.frequencies()
        theirs = other.frequencies()
        return 0.5 * sum(abs(a - b) for a, b in zip(mine, theirs))

    def matches_target(
        self, target_frequencies: Sequence[float], tolerance: float = 0.05
    ) -> bool:
        """Does the measured distribution match ``target`` within TV tolerance?

        Used by the Figure 11 reproduction to assert that every
        application's shaped request distribution equals the DESIRED
        staircase.
        """
        if len(target_frequencies) != self.spec.num_bins:
            raise ConfigurationError("target has wrong number of bins")
        mine = self.frequencies()
        tv = 0.5 * sum(abs(a - b) for a, b in zip(mine, target_frequencies))
        return tv <= tolerance

    def __repr__(self) -> str:  # pragma: no cover - debugging sugar
        return f"InterArrivalHistogram(counts={self._counts})"
