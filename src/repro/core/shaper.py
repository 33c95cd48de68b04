"""Release policies: *when* a shaper station may let a transaction go.

The two stations (:class:`~repro.core.request_shaper.RequestCamouflage`,
:class:`~repro.core.response_shaper.ResponseCamouflage`) own the queue
in front of the link; the timing belongs to the station's *release
policy*, its ``shaper``: :class:`BinShaper` (Camouflage proper, below),
:class:`~repro.core.epoch_shaper.EpochRatePolicy` (Fletcher'14) or
:class:`Passthrough` (no shaping).

The release-policy protocol
---------------------------
The whole interface a station uses, and so the boundary demand
independence rests on: a policy answers from its own precomputed
schedule, and ``queued`` is the only demand-derived value that crosses
into it.

``spec``
    Bin geometry for the station's probe histograms (``None``: the
    default :class:`~repro.core.bins.BinSpec`).
``shapes``
    ``False`` only for :class:`Passthrough`: the post-station stream
    *is* the intrinsic one, so the station keeps a single histogram.
``tracer``
    Where the station emits its release events.
``next_boundary``
    The next cycle :meth:`advance` has work at; always a station event.
``advance(cycle, queued) -> int``
    Cross every boundary due by ``cycle`` (``queued``: the station's
    queue depth); returns how many.
``earliest_real_release(cycle)`` / ``earliest_fake_release(cycle)``
    Lower bound on the first cycle ``>= cycle`` the matching
    ``can_release_*`` holds if no boundary intervenes; ``None`` when
    only crossing one can make it hold.
``can_release_real(cycle)`` / ``can_release_fake(cycle)``
    May a real / fake transaction go this cycle?
``release_real(cycle)`` / ``release_fake(cycle)``
    Account for one release; returns the index traced as ``bin=``.

Shaping plans
-------------
A station's policy is built by the frozen plan the core was added
with (:class:`RequestShapingPlan`, :class:`ResponseShapingPlan`,
:class:`~repro.core.epoch_shaper.EpochShapingPlan`); a station without
one gets :class:`Passthrough`.  The builder asks a plan only:

``policy(rng, core_id)``
    A fresh release policy, its random streams forked from the
    system RNG.
``distribution``
    The configured bin distribution the shaped stream is held to, or
    ``None`` (no bins: no monitor target, no credit registers).
``generate_fake`` / ``fake_rng(rng, core_id)``
    Request plans only: whether the station fakes, and its
    fake-address stream.

The bin-based credit shaper (paper sections III-A1 and III-A2)
--------------------------------------------------------------
One :class:`BinShaper` instance is the credit machinery of one
direction (request or response) for one core.  Semantics, following
the paper:

* A transaction whose inter-arrival time is Δ (cycles since the
  previous release, real or fake) may release when **some bin with
  interval edge ≤ Δ holds a credit**; the *largest* such bin is
  consumed, keeping the accounting aligned with the observed gap.
  Otherwise the transaction stalls until Δ grows into a credited bin
  or credits are replenished.
* **Replenishment** happens every ``spec.replenish_period`` cycles:
  leftover credits are latched into the *unused-credit* register file
  (the second array of Figure 7) and the live credits reset to the
  configured distribution.
* **Fake traffic** draws from the latched unused credits of the
  previous period: whenever no real transaction releases in a cycle
  and an unused bin with edge ≤ Δ is credited, a fake release fires.
  Fake traffic therefore tops the stream up to the configured
  distribution one period behind the shortfall — exactly Figure 7's
  compensation scheme ("the added fake traffic compensates for
  requests missing from the previous replenishment period").

At most one release (real *or* fake) can occur per cycle because the
smallest bin edge is ≥ 1 cycle, modelling the single-transaction port
width of the hardware.

Reconfiguration (the GA's runtime knob) is double-buffered: a new
:class:`~repro.core.bins.BinConfiguration` takes effect at the next
replenishment boundary so a period is never shaped by two different
distributions.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.common.errors import ConfigurationError, ProtocolError
from repro.core.bins import BinConfiguration, BinSpec
from repro.obs.events import CATEGORY_SHAPER, SYSTEM_CORE
from repro.obs.tracer import NULL_TRACER


class Passthrough:
    """The release policy of an unshaped direction: a queued
    transaction may always go, nothing is ever faked, and there is no
    boundary to cross.  Stateless and silent (no tracer is attached)."""

    spec = None
    shapes = False
    tracer = NULL_TRACER
    #: Later than any cycle rather than ``None``, so a station
    #: min-reduces against it like against any other boundary.
    next_boundary = (1 << 63) - 1

    def advance(self, cycle: int, queued: int) -> int:
        return 0

    def earliest_real_release(self, cycle: int) -> int:
        return cycle

    def earliest_fake_release(self, cycle: int) -> None:
        return None

    def can_release_real(self, cycle: int) -> bool:
        return True

    def can_release_fake(self, cycle: int) -> bool:
        return False

    def release_real(self, cycle: int) -> int:
        return 0

    def release_fake(self, cycle: int) -> int:
        raise ProtocolError("a passthrough policy never releases fakes")


@dataclass(frozen=True)
class ShaperState:
    """Snapshot of the shaper's register file (for tests and debugging)."""

    credits: Tuple[int, ...]
    unused_credits: Tuple[int, ...]
    last_release_cycle: int
    next_replenish_cycle: int


class BinShaper:
    """Credit registers, replenishment and fake-traffic eligibility."""

    shapes = True

    def __init__(
        self,
        spec: BinSpec,
        config: BinConfiguration,
        start_cycle: int = 0,
        strict: bool = False,
        jitter_rng=None,
    ) -> None:
        """``strict`` selects the exact-bin release rule: a transaction
        may only consume the credit of the bin its inter-arrival time
        actually falls into (top bin excepted, to bound worst-case
        delay).  This makes the observed distribution track the
        configured one tightly — the Figure 11 accuracy mode — at some
        extra stalling compared to the default rule, which accepts any
        credited bin with edge ≤ Δ.

        ``jitter_rng`` (a :class:`~repro.common.rng.DeterministicRng`)
        enables the paper's section IV-B4 mitigation for fine-grained
        within-replenishment-window attacks: each real release is
        delayed by a random hold drawn from the width of the eligible
        bin's interval, "to increase the timing uncertainty and
        probability of memory conflict in a randomized manner".
        """
        if config.num_bins != spec.num_bins:
            raise ConfigurationError(
                f"configuration has {config.num_bins} bins but the spec "
                f"has {spec.num_bins}"
            )
        self.spec = spec
        self._strict = strict
        self._jitter_rng = jitter_rng
        # Cycle a pending jittered release is held until (None = no
        # hold armed); re-armed per release, cleared when consumed.
        self._jitter_hold_until: Optional[int] = None
        self._config = config
        self._credits: List[int] = list(config.credits)
        self._unused: List[int] = [0] * spec.num_bins
        self._last_release = start_cycle
        self._next_replenish = start_cycle + spec.replenish_period
        self._pending_config: Optional[BinConfiguration] = None
        # Derived aggregates over the credit registers: recomputed on
        # replenishment, updated in place by release_real/release_fake
        # (a total drops by one; the smallest credited edge is rescanned
        # only when the consumed register empties).  They make the
        # non-strict next-event bounds O(1) per poll — the engines poll
        # every stepped cycle, while releases are comparatively rare.
        self._credits_total = 0
        self._unused_total = 0
        self._credits_smallest_edge: Optional[int] = None
        self._unused_smallest_edge: Optional[int] = None
        self._recache_aggregates()

        # Telemetry.
        self.real_releases = 0
        self.fake_releases = 0
        self.replenishments = 0
        self.last_unused_snapshot: Tuple[int, ...] = tuple([0] * spec.num_bins)

        # Observability: inert by default; the system builder attaches
        # a live tracer (and the core/direction labels) when enabled.
        self.tracer = NULL_TRACER
        self.trace_core = SYSTEM_CORE
        self.trace_direction = ""

    def attach_tracer(self, tracer, core_id: int, direction: str) -> None:
        """Wire the event tracer in (builder-time, never mid-run)."""
        self.tracer = tracer
        self.trace_core = core_id
        self.trace_direction = direction

    # -- configuration -----------------------------------------------------

    @property
    def config(self) -> BinConfiguration:
        return self._config

    def reconfigure(self, config: BinConfiguration) -> None:
        """Install a new distribution at the next replenishment boundary."""
        if config.num_bins != self.spec.num_bins:
            raise ConfigurationError("new configuration has wrong bin count")
        self._pending_config = config

    def state(self) -> ShaperState:
        return ShaperState(
            credits=tuple(self._credits),
            unused_credits=tuple(self._unused),
            last_release_cycle=self._last_release,
            next_replenish_cycle=self._next_replenish,
        )

    # -- replenishment ------------------------------------------------------------

    def replenish_if_due(self, cycle: int) -> int:
        """Process any replenishment boundaries up to ``cycle``.

        Returns the number of boundaries crossed (normally 0 or 1; more
        only if the caller skipped cycles).  On each boundary the
        leftover credits are latched as the unused-credit registers and
        the live credits reload from the (possibly newly installed)
        configuration.
        """
        boundaries = 0
        while cycle >= self._next_replenish:
            self._unused = list(self._credits)
            self.last_unused_snapshot = tuple(self._unused)
            if self._pending_config is not None:
                self._config = self._pending_config
                self._pending_config = None
            self._credits = list(self._config.credits)
            # A jitter hold armed against the old period's credits must
            # not delay (or raise against) a release whose bin was just
            # reloaded: the hardware latch resets with the registers.
            self._jitter_hold_until = None
            if self.tracer.enabled:
                # Stamped with the nominal boundary, not the tick that
                # processed it: a next-event skip may land several
                # boundaries late, and the event stream must not show it.
                self.tracer.emit(
                    self._next_replenish, CATEGORY_SHAPER, "shaper.replenish",
                    core_id=self.trace_core,
                    direction=self.trace_direction,
                    unused=sum(self._unused),
                    credits=sum(self._credits),
                )
            self._next_replenish += self.spec.replenish_period
            self.replenishments += 1
            boundaries += 1
        if boundaries:
            self._recache_aggregates()
        return boundaries

    def advance(self, cycle: int, queued: int) -> int:
        """:meth:`replenish_if_due` under its protocol name: the queue
        depth is not a credit input."""
        return self.replenish_if_due(cycle)

    def _recache_aggregates(self) -> None:
        """Refresh the derived totals / smallest-credited-edge caches."""
        self._credits_total = sum(self._credits)
        self._unused_total = sum(self._unused)
        self._credits_smallest_edge = self._smallest_credited_edge(self._credits)
        self._unused_smallest_edge = self._smallest_credited_edge(self._unused)

    def _smallest_credited_edge(self, registers: List[int]) -> Optional[int]:
        for edge, count in zip(self.spec.edges, registers):
            if count > 0:
                return edge
        return None

    # -- release eligibility ---------------------------------------------------------

    def _delta(self, cycle: int) -> int:
        if cycle < self._last_release:
            raise ProtocolError(
                f"shaper clock moved backwards ({cycle} < {self._last_release})"
            )
        return cycle - self._last_release

    def _eligible_bin(self, registers: List[int], delta: int) -> Optional[int]:
        """The bin a release at gap ``delta`` would consume, or None.

        Default rule: the largest credited bin whose edge ≤ delta
        (paper III-A1: stall only "if there are no credits available in
        a bin that represent lower or equal to the ... inter-arrival
        time").  Strict rule: only the exact bin containing delta, with
        the top bin falling back to the default rule so a long-idle
        stream can never deadlock.
        """
        if self._strict:
            k = self.spec.bin_of(delta)
            if self.spec.edges[k] <= delta and registers[k] > 0:
                return k
            if k < self.spec.num_bins - 1:
                return None
            # Top-bin fallback: behave like the default rule.
        k = bisect_right(self.spec.edges, delta) - 1
        while k >= 0:
            if registers[k] > 0:
                return k
            k -= 1
        return None

    def _bin_interval_width(self, bin_index: int) -> int:
        """Width of a bin's inter-arrival interval (for jitter draws)."""
        edges = self.spec.edges
        if bin_index + 1 < len(edges):
            return edges[bin_index + 1] - edges[bin_index]
        return edges[bin_index]

    def can_release_real(self, cycle: int) -> bool:
        """May a real transaction release this cycle?

        With jitter enabled, the first cycle a release *would* be
        eligible arms a random hold inside the eligible bin's interval
        (hardware latches the draw); the release is permitted once the
        hold expires — the section IV-B4 randomization.
        """
        bin_index = self._eligible_bin(self._credits, self._delta(cycle))
        if bin_index is None:
            return False
        if self._jitter_rng is None:
            return True
        if self._jitter_hold_until is None:
            width = self._bin_interval_width(bin_index)
            self._jitter_hold_until = cycle + self._jitter_rng.randint(
                0, max(0, width - 1)
            )
            if self.tracer.enabled:
                self.tracer.emit(
                    cycle, CATEGORY_SHAPER, "shaper.jitter_hold",
                    core_id=self.trace_core,
                    direction=self.trace_direction,
                    hold_until=self._jitter_hold_until,
                    bin=bin_index,
                )
        return cycle >= self._jitter_hold_until

    def can_release_fake(self, cycle: int) -> bool:
        """May a fake transaction release this cycle (unused credits)?"""
        return self._eligible_bin(self._unused, self._delta(cycle)) is not None

    def _earliest_eligible(
        self,
        registers: List[int],
        cycle: int,
        floor: Optional[int] = None,
    ) -> Optional[int]:
        """Smallest ``c' >= max(cycle, floor)`` whose inter-arrival gap
        makes :meth:`_eligible_bin` succeed against ``registers`` under
        the strict rule (the default rule's bounds are O(1) in the
        callers).

        Assumes no releases or replenishments happen in between (the
        caller re-queries after either).  ``None`` when the registers
        hold no credits at all.
        """
        self._delta(cycle)  # clock-monotonicity check
        lo = cycle if floor is None else max(cycle, floor)
        if not any(r > 0 for r in registers):
            return None
        edges = self.spec.edges
        last = self._last_release
        # Eligibility is per bin interval [edges[k], edges[k+1]) and
        # non-monotone in delta — a credited bin whose interval has
        # already passed only becomes usable again through the top-bin
        # fallback.
        best: Optional[int] = None
        for k, edge in enumerate(edges):
            if registers[k] <= 0:
                continue
            start = max(lo, last + edge)
            if k + 1 < len(edges) and start >= last + edges[k + 1]:
                continue  # interval already passed at the floor
            if best is None or start < best:
                best = start
        # Top-bin fallback: once delta reaches the last edge the
        # default rule applies, so any remaining credit is eligible.
        fallback = max(lo, last + edges[-1])
        if best is None or fallback < best:
            best = fallback
        return best

    def earliest_real_release(self, cycle: int) -> Optional[int]:
        """Earliest future cycle a real release becomes possible.

        A true lower bound on ``min {c' >= cycle : can_release_real(c')}``
        under both the strict exact-bin rule and an armed jitter hold,
        so the next-event engine can skip straight to it:

        * no jitter, or jitter with a hold armed — the returned cycle
          is *exactly* the first cycle :meth:`can_release_real` answers
          True (assuming no replenishment in between);
        * jitter enabled but no hold armed yet — the returned cycle is
          where the hold would be armed; the draw is unknown until
          then, so the release may still be held a few cycles past it.

        ``None`` when no live credits remain — the caller must wait for
        the next replenishment (:attr:`next_replenish_cycle`).
        """
        floor = self._jitter_hold_until if self._jitter_rng is not None else None
        if not self._strict:
            # O(1) via the cached aggregates: with the default rule the
            # bound is reached exactly when delta hits the smallest
            # credited edge (eligibility is monotone in delta).
            self._delta(cycle)
            if self._credits_total == 0:
                return None
            lo = cycle if floor is None else max(cycle, floor)
            return max(lo, self._last_release + self._credits_smallest_edge)
        return self._earliest_eligible(self._credits, cycle, floor=floor)

    def earliest_fake_release(self, cycle: int) -> Optional[int]:
        """Earliest future cycle a fake release becomes possible.

        Exactly the first cycle :meth:`can_release_fake` answers True
        (fake releases never jitter); ``None`` when no unused credits
        remain from the previous period.
        """
        if not self._strict:
            self._delta(cycle)
            if self._unused_total == 0:
                return None
            return max(cycle, self._last_release + self._unused_smallest_edge)
        return self._earliest_eligible(self._unused, cycle)

    @property
    def next_replenish_cycle(self) -> int:
        return self._next_replenish

    next_boundary = next_replenish_cycle

    # -- release actions -------------------------------------------------------------

    def release_real(self, cycle: int) -> int:
        """Consume a credit for a real release; returns the bin index."""
        delta = self._delta(cycle)
        bin_index = self._eligible_bin(self._credits, delta)
        if bin_index is None:
            raise ProtocolError(
                f"real release at cycle {cycle} without an eligible credit "
                f"(delta={delta}, credits={self._credits})"
            )
        if self._jitter_hold_until is not None and cycle < self._jitter_hold_until:
            raise ProtocolError(
                f"real release at cycle {cycle} before its jitter hold "
                f"expires ({self._jitter_hold_until})"
            )
        credits = self._credits
        credits[bin_index] -= 1
        self._credits_total -= 1
        if not credits[bin_index]:
            self._credits_smallest_edge = self._smallest_credited_edge(credits)
        self._last_release = cycle
        self._jitter_hold_until = None
        self.real_releases += 1
        return bin_index

    def release_fake(self, cycle: int) -> int:
        """Consume an unused credit for a fake release; returns the bin."""
        delta = self._delta(cycle)
        bin_index = self._eligible_bin(self._unused, delta)
        if bin_index is None:
            raise ProtocolError(
                f"fake release at cycle {cycle} without an eligible unused "
                f"credit (delta={delta}, unused={self._unused})"
            )
        unused = self._unused
        unused[bin_index] -= 1
        self._unused_total -= 1
        if not unused[bin_index]:
            self._unused_smallest_edge = self._smallest_credited_edge(unused)
        self._last_release = cycle
        self.fake_releases += 1
        return bin_index

    # -- telemetry -----------------------------------------------------------------

    def credits_remaining(self) -> Tuple[int, ...]:
        return tuple(self._credits)

    def unused_remaining(self) -> Tuple[int, ...]:
        return tuple(self._unused)

    def unused_total_at_last_replenish(self) -> int:
        """Sum of credits latched unused at the most recent boundary.

        This is the number RespC sends to the memory scheduler with its
        priority warning (paper section III-B1).
        """
        return sum(self.last_unused_snapshot)


# -- shaping plans ----------------------------------------------------------


class _BinPlan:
    """The half of a bin-credit plan that builds and targets its policy
    (the frozen fields live on the two plans below)."""

    @property
    def distribution(self) -> Tuple[float, ...]:
        """The configured bin distribution the shaped stream is held to
        (the monitor's target; ``None`` on a plan without bins)."""
        return self.config.normalized()

    def policy(self, rng, core_id: int) -> BinShaper:
        """This core's release policy; the jitter stream is forked from
        the system RNG at ``jitter_salt + core_id``."""
        return BinShaper(
            self.spec, self.config,
            strict=self.strict_binning,
            jitter_rng=(
                rng.fork(self.jitter_salt + core_id) if self.jitter else None
            ),
        )


@dataclass(frozen=True)
class RequestShapingPlan(_BinPlan):
    """ReqC attachment for one core (``add_core(request_shaping=)``).

    ``strict_binning`` selects the exact-bin release rule (tightest
    distribution matching, used for the Figure 11 accuracy experiment)
    over the default any-credited-bin rule.
    """

    config: BinConfiguration
    spec: BinSpec = BinSpec()
    generate_fake: bool = True
    strict_binning: bool = False
    jitter: bool = False

    #: Fork salt of the jitter stream (a constant, not a field).
    jitter_salt = 3000

    def fake_rng(self, rng, core_id: int):
        """The station's fake-address stream."""
        return rng.fork(1000 + core_id)


@dataclass(frozen=True)
class ResponseShapingPlan(_BinPlan):
    """RespC attachment for one core (``add_core(response_shaping=)``)."""

    config: BinConfiguration
    spec: BinSpec = BinSpec()
    generate_fake: bool = True
    enable_warning: bool = True
    strict_binning: bool = False
    jitter: bool = False

    #: Fork salt of the jitter stream (a constant, not a field).
    jitter_salt = 4000
