"""Response Camouflage (RespC) — paper section III-B1 and Figure 6.

Sits at the memory controller's egress, one instance per core: the
response-direction *station*, releasing when its release policy (see
:mod:`repro.core.shaper`) allows.  An unprotected core's carries
:class:`~repro.core.shaper.Passthrough`; under
:class:`~repro.core.shaper.BinShaper` there are three mechanisms:

1. **Throttling** — responses arriving faster than the target
   distribution wait in the response queue until a credit is eligible.
2. **Acceleration** — when responses arrive *slower* than the target
   (e.g. co-runners hog the memory system), the shaper cannot conjure
   real data, so at each replenishment boundary it sends a *warning*
   to the scheduler with its count of unused credits; a
   :class:`~repro.memctrl.schedulers.PriorityFrFcfsScheduler` converts
   that count into priority boosts for this core's requests.
3. **Fake responses** — when the core simply is not requesting (no
   pending or fresh responses) but unused credits remain, fake
   responses keep the egress stream on the target distribution
   (Figure 6 case 3).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional

from repro.common.errors import ConfigurationError
from repro.core.distribution import InterArrivalHistogram
from repro.memctrl.schedulers import PriorityFrFcfsScheduler
from repro.memctrl.transaction import MemoryTransaction, TransactionType
from repro.noc.link import SharedLink
from repro.obs.events import CATEGORY_SHAPER


def _zero_outstanding() -> int:
    """Default outstanding probe — module-level so the shaper pickles
    (checkpoint/restore snapshots the whole wired system graph)."""
    return 0


class ResponseCamouflage:
    """Per-core response shaper at the controller egress.

    Parameters
    ----------
    core_id, shaper, link, port:
        As for :class:`~repro.core.request_shaper.RequestCamouflage`,
        but on the response channel.
    scheduler:
        The priority-capable memory scheduler to send warnings to
        (``None`` disables the acceleration path, leaving a pure
        throttle-plus-fake shaper — the BDC deployment where "memory
        scheduling policies cannot be changed").
    outstanding_fn:
        Callable returning how many of this core's requests are still
        inside the memory system.  A replenishment that latches unused
        credits *while requests are outstanding* means the memory
        system is too slow → warn; unused credits with nothing
        outstanding mean the program is idle → fake responses instead.
    """

    def __init__(
        self,
        core_id: int,
        shaper,
        link: SharedLink,
        port: int,
        scheduler: Optional[PriorityFrFcfsScheduler] = None,
        outstanding_fn: Optional[Callable[[], int]] = None,
        buffer_capacity: int = 64,
        generate_fake: bool = True,
    ) -> None:
        if buffer_capacity <= 0:
            raise ConfigurationError("buffer_capacity must be positive")
        self.core_id = core_id
        self.shaper = shaper
        self.link = link
        self.port = port
        self.scheduler = scheduler
        self._outstanding_fn = outstanding_fn or _zero_outstanding
        self._capacity = buffer_capacity
        self._queue: Deque[MemoryTransaction] = deque()
        self.generate_fake = generate_fake

        # A policy that does not shape releases the intrinsic stream.
        self.intrinsic_histogram = InterArrivalHistogram(shaper.spec)
        self.shaped_histogram = (
            InterArrivalHistogram(shaper.spec)
            if shaper.shapes else self.intrinsic_histogram
        )

        self.real_sent = 0
        self.fake_sent = 0
        self.warnings_sent = 0
        self.boost_credits_granted = 0

    def set_outstanding_fn(self, fn: Callable[[], int]) -> None:
        """Late-bind the outstanding-request probe (builder wiring)."""
        self._outstanding_fn = fn

    # -- controller-facing interface ---------------------------------------

    def can_accept(self) -> bool:
        return len(self._queue) < self._capacity

    def push_response(self, txn: MemoryTransaction, cycle: int) -> None:
        """Accept a completed transaction from the controller egress."""
        self._queue.append(txn)
        self.intrinsic_histogram.record(cycle)

    @property
    def occupancy(self) -> int:
        return len(self._queue)

    # -- per-cycle operation -----------------------------------------------------

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        """Next cycle :meth:`tick` could release or cross a boundary.

        Boundaries always count (credit reload plus the priority-warning
        hook); a queued real response contributes the policy's lower
        bound, and fake responses are only eligible while the queue is
        empty (Figure 6 case 3).  Link backpressure is the link's event.
        """
        event = self.shaper.next_boundary
        if self._queue:
            real = self.shaper.earliest_real_release(cycle)
            if real is not None and real < event:
                event = real
        elif self.generate_fake:
            fake = self.shaper.earliest_fake_release(cycle)
            if fake is not None and fake < event:
                event = fake
        return max(cycle, event)

    def tick(self, cycle: int) -> None:
        if self.shaper.advance(cycle, len(self._queue)):
            self._maybe_warn()
        if not self.link.can_inject(self.port):
            return
        if self._queue and self.shaper.can_release_real(cycle):
            txn = self._queue.popleft()
            bin_index = self.shaper.release_real(cycle)
            txn.response_release_cycle = cycle
            self.link.inject(self.port, txn)
            if self.shaper.shapes:
                self.shaped_histogram.record(cycle)
            self.real_sent += 1
            if self.shaper.tracer.enabled:
                self.shaper.tracer.emit(
                    cycle, CATEGORY_SHAPER, "shaper.real_release",
                    core_id=self.core_id, direction="response",
                    bin=bin_index, queued=len(self._queue),
                )
            return
        if (
            self.generate_fake
            and not self._queue
            and self.shaper.can_release_fake(cycle)
        ):
            bin_index = self.shaper.release_fake(cycle)
            fake = MemoryTransaction(
                core_id=self.core_id,
                address=0,
                kind=TransactionType.FAKE_READ,
                created_cycle=cycle,
            )
            fake.response_release_cycle = cycle
            self.link.inject(self.port, fake)
            self.shaped_histogram.record(cycle)
            self.fake_sent += 1
            if self.shaper.tracer.enabled:
                self.shaper.tracer.emit(
                    cycle, CATEGORY_SHAPER, "shaper.fake_inject",
                    core_id=self.core_id, direction="response",
                    bin=bin_index,
                )

    def _maybe_warn(self) -> None:
        """Replenishment hook: ask for priority if the MC is too slow.

        Unused credits with requests still inside the memory system
        mean the response rate fell below the target because of
        interference — the acceleration case.  The warning carries the
        unused-credit count and the scheduler boosts this core
        "in proportion to the number of unused credits" (paper
        section III-B1).  Reads the :class:`BinShaper` unused-credit
        latch: a scheduler is only ever wired alongside that policy.
        """
        if self.scheduler is None:
            return
        unused = self.shaper.unused_total_at_last_replenish()
        if unused > 0 and self._outstanding_fn() > 0:
            # A fresh per-period grant (set, not add): unconsumed boost
            # from earlier periods must not pile up into a permanent
            # priority inversion against the other cores.
            self.scheduler.set_boost(self.core_id, unused)
            self.warnings_sent += 1
            self.boost_credits_granted += unused
            if self.shaper.tracer.enabled:
                # Stamped with the boundary the warning belongs to (the
                # most recent one processed), so late boundary catch-up
                # under the next-event engine traces identically.
                self.shaper.tracer.emit(
                    self.shaper.next_replenish_cycle
                    - self.shaper.spec.replenish_period,
                    CATEGORY_SHAPER, "shaper.priority_warning",
                    core_id=self.core_id, direction="response",
                    unused=unused,
                )

