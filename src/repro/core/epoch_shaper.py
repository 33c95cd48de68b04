"""Epoch-based constant-rate shaping (Fletcher et al., HPCA 2014).

The paper's reference [14] — the enhanced Ascend design — splits a
program into coarse-grain epochs and picks a new constant access rate
from a fixed *rate set* at each epoch boundary.  Leakage is then
bounded by ``E × log2(R)`` bits (E epochs, R rates): the only
information an observer gains is which rate was chosen when.

Camouflage subsumes this design point (a one-bin configuration per
epoch), but the paper compares against it conceptually in Figure 2, so
this module provides it as one more release policy (the protocol is
in :mod:`repro.core.shaper`) for the request station:

* :class:`RateSet` — the allowed intervals (powers of two by default).
* :class:`EpochRatePolicy` — one release slot every ``current_interval``
  cycles, real if a request is queued and fake otherwise (the ORAM in
  Ascend is accessed unconditionally at the chosen rate); at each
  epoch boundary the interval moves one step within the rate set on
  the epoch's pressure/idle feedback.
* :class:`EpochShapingPlan` — the ``request_shaping=`` plan that
  builds one.

Leakage accounting is explicit: :meth:`EpochRatePolicy.leakage_bound_bits`
returns the ``E × log2(R)`` bound for the run so far.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.obs.events import CATEGORY_SHAPER, SYSTEM_CORE
from repro.obs.tracer import NULL_TRACER


@dataclass(frozen=True)
class RateSet:
    """The discrete intervals (cycles/access) an epoch may choose from."""

    intervals: Tuple[int, ...] = (8, 16, 32, 64, 128, 256)

    def __post_init__(self) -> None:
        if not self.intervals:
            raise ConfigurationError("rate set must not be empty")
        if any(i <= 0 for i in self.intervals):
            raise ConfigurationError("intervals must be positive")
        if list(self.intervals) != sorted(set(self.intervals)):
            raise ConfigurationError(
                "intervals must be strictly increasing and unique"
            )

    @property
    def num_rates(self) -> int:
        return len(self.intervals)

    def bits_per_choice(self) -> float:
        """log2(R): information revealed by one epoch's rate choice."""
        return math.log2(self.num_rates)


class EpochRatePolicy:
    """Fletcher'14 release policy: constant rate per epoch, fake-filled.

    An observer sees a perfectly periodic stream whose only degree of
    freedom is the per-epoch rate choice, made by AIMD-style feedback:
    one rate *faster* when the epoch saw queueing pressure, one rate
    *slower* when most of its slots went to fake traffic.
    """

    spec = None
    shapes = True

    def __init__(self, rates: Optional[RateSet] = None,
                 epoch_cycles: int = 8192,
                 initial_interval: Optional[int] = None) -> None:
        if epoch_cycles <= 0:
            raise ConfigurationError("epoch_cycles must be positive")
        self.rates = rates or RateSet()
        self.epoch_cycles = epoch_cycles
        self.current_interval = initial_interval or self.rates.intervals[-1]
        if self.current_interval not in self.rates.intervals:
            raise ConfigurationError(
                f"initial interval {self.current_interval} not in the rate set"
            )
        self.next_boundary = epoch_cycles
        self.rate_history: List[Tuple[int, int]] = []  # (cycle, interval)
        self._next_slot = self.current_interval
        # Per-epoch feedback for the boundary's rate decision.
        self._pressure_this_epoch = False
        self._real_slots_this_epoch = 0
        self._fake_slots_this_epoch = 0
        self.tracer = NULL_TRACER
        self.trace_core = SYSTEM_CORE
        self.trace_direction = ""

    def attach_tracer(self, tracer, core_id: int, direction: str) -> None:
        """Wire the event tracer in (builder-time, never mid-run)."""
        self.tracer = tracer
        self.trace_core = core_id
        self.trace_direction = direction

    # -- epoch boundaries ---------------------------------------------------

    def advance(self, cycle: int, queued: int) -> int:
        """Cross any due epoch boundary, then note this tick's pressure.

        Each boundary moves the interval one step on the feedback the
        *previous* ticks gathered and re-times the slots from ``cycle``.
        ``queued`` only ever sets a flag — it picks among the fixed
        rate-set intervals (the accounted ``E × log2(R)`` channel) and
        never enters a timing value: inside an epoch the release grid
        ignores the schedule (``test_shaper_nextevent.py``,
        ``test_epoch_release_cycles_ignore_the_schedule``).
        """
        crossed = 0
        while cycle >= self.next_boundary:
            slots = self._real_slots_this_epoch + self._fake_slots_this_epoch
            idle = slots > 0 and self._fake_slots_this_epoch > slots // 2
            index = self._rate_index()
            if self._pressure_this_epoch and index > 0:
                index -= 1
            elif idle and index + 1 < self.rates.num_rates:
                index += 1
            interval = self.rates.intervals[index]
            if interval != self.current_interval:
                self.rate_history.append((self.next_boundary, interval))
            self.current_interval = interval
            self.next_boundary += self.epoch_cycles
            crossed += 1
        if crossed:
            self._pressure_this_epoch = False
            self._real_slots_this_epoch = 0
            self._fake_slots_this_epoch = 0
            self._next_slot = max(
                self._next_slot, cycle + self.current_interval
            )
            if self.tracer.enabled:
                self.tracer.emit(
                    cycle, CATEGORY_SHAPER, "shaper.epoch_boundary",
                    core_id=self.trace_core,
                    direction=self.trace_direction,
                    interval=self.current_interval,
                )
        if queued > 1:
            # More than one waiter means the rate is holding the
            # program back — escalate at the next boundary.
            self._pressure_this_epoch = True
        return crossed

    def _rate_index(self) -> int:
        return self.rates.intervals.index(self.current_interval)

    @property
    def epochs_elapsed(self) -> int:
        return self.next_boundary // self.epoch_cycles - 1

    # -- release slots --------------------------------------------------------
    #
    # The next slot always fires — real if the station has a request
    # queued, else fake — so both kinds share one eligibility rule.

    def earliest_real_release(self, cycle: int) -> int:
        return max(cycle, self._next_slot)

    def earliest_fake_release(self, cycle: int) -> int:
        return max(cycle, self._next_slot)

    def can_release_real(self, cycle: int) -> bool:
        return cycle >= self._next_slot

    def can_release_fake(self, cycle: int) -> bool:
        return cycle >= self._next_slot

    def release_real(self, cycle: int) -> int:
        self._real_slots_this_epoch += 1
        self._next_slot = cycle + self.current_interval
        return self._rate_index()

    def release_fake(self, cycle: int) -> int:
        self._fake_slots_this_epoch += 1
        self._next_slot = cycle + self.current_interval
        return self._rate_index()

    # -- leakage accounting -----------------------------------------------------

    def leakage_bound_bits(self) -> float:
        """Fletcher'14's bound: E × log2(R) for the epochs so far."""
        return max(0, self.epochs_elapsed) * self.rates.bits_per_choice()


@dataclass(frozen=True)
class EpochShapingPlan:
    """Fletcher'14 epoch-rate attachment for a core's request station
    (``add_core(request_shaping=)``), the baseline the paper compares
    against: an :class:`EpochRatePolicy` times the station.
    """

    rates: Optional[RateSet] = None
    epoch_cycles: int = 8192

    #: Every slot releases, real or fake.
    generate_fake = True
    #: No bin distribution: the monitor watches the stream untargeted.
    distribution = None

    def policy(self, rng, core_id: int) -> EpochRatePolicy:
        return EpochRatePolicy(self.rates, self.epoch_cycles)

    def fake_rng(self, rng, core_id: int):
        """The station's fake-address stream."""
        return rng.fork(2000 + core_id)
