"""Request Camouflage (ReqC) — paper section III-B2.

The request-direction *station*, between a core's LLC miss path and
the shared request channel.  Real LLC misses queue in a small buffer
and release only when the station's release policy (protocol in
:mod:`repro.core.shaper`) allows; whenever no real request went, the
policy may call for a fake one — a non-cached read to a random address
— so that under :class:`~repro.core.shaper.BinShaper` the post-shaper
stream always sums to the configured distribution regardless of what
the program is doing.  Every core has one; an unprotected core's
carries :class:`~repro.core.shaper.Passthrough`.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.common.errors import ConfigurationError
from repro.common.rng import DeterministicRng
from repro.core.distribution import InterArrivalHistogram
from repro.memctrl.transaction import MemoryTransaction, TransactionType
from repro.noc.link import SharedLink
from repro.obs.events import CATEGORY_SHAPER


class RequestCamouflage:
    """Per-core request shaper with fake-traffic generation.

    Parameters
    ----------
    core_id:
        The core whose miss stream this shaper guards.
    shaper:
        The release policy (one per direction per core).
    link, port:
        The shared request channel and this core's port on it.
    rng:
        Source for fake-request addresses; a policy that never fakes
        never draws, so it may then be omitted.
    address_space_bytes:
        Fake requests target random line-aligned addresses below this
        bound.
    line_bytes:
        Cache-line size for fake-address alignment.
    buffer_capacity:
        Miss-buffer depth; when full the core's fetch stage stalls.
    generate_fake:
        Disable to get a throttle-only shaper (used in the paper's
        "without fake traffic" MI measurement).
    """

    def __init__(
        self,
        core_id: int,
        shaper,
        link: SharedLink,
        port: int,
        rng: Optional[DeterministicRng] = None,
        address_space_bytes: int = 1 << 30,
        line_bytes: int = 64,
        buffer_capacity: int = 32,
        generate_fake: bool = True,
    ) -> None:
        if buffer_capacity <= 0:
            raise ConfigurationError("buffer_capacity must be positive")
        self.core_id = core_id
        self.shaper = shaper
        self.link = link
        self.port = port
        self._rng = rng
        self._address_space = address_space_bytes
        self._line_bytes = line_bytes
        self._capacity = buffer_capacity
        self._buffer: Deque[MemoryTransaction] = deque()
        self.generate_fake = generate_fake

        # Probe histograms: the intrinsic (pre-shaper) distribution and
        # the shaped (post-shaper) distribution, both over the shaper's
        # own bin geometry — the paper measures post-Camouflage traffic
        # "with another hardware bin" (section IV-E1).  A policy that
        # does not shape releases the intrinsic stream itself.
        self.intrinsic_histogram = InterArrivalHistogram(shaper.spec)
        self.shaped_histogram = (
            InterArrivalHistogram(shaper.spec)
            if shaper.shapes else self.intrinsic_histogram
        )

        self.real_sent = 0
        self.fake_sent = 0
        self.stall_cycles = 0
        # First cycle whose tick is not yet counted in ``stall_cycles``
        # (see :meth:`settle`).
        self._stall_from = 0

    # -- core-facing interface ------------------------------------------------

    def can_accept(self) -> bool:
        """Backpressure signal to the core's fetch stage."""
        return len(self._buffer) < self._capacity

    def submit(self, txn: MemoryTransaction, cycle: int) -> None:
        """Queue a real LLC miss for shaped release."""
        if not self._buffer and self._stall_from <= cycle:
            # No earlier tick saw a request, and the one at ``cycle``,
            # if still to come, is run: a fed station always is.
            self._stall_from = cycle + 1
        self._buffer.append(txn)
        self.intrinsic_histogram.record(cycle)

    @property
    def occupancy(self) -> int:
        return len(self._buffer)

    # -- per-cycle operation ------------------------------------------------------

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        """Next cycle :meth:`tick` could do more than count a stall.

        The policy's next boundary is always an event (credits reload,
        fake eligibility changes); a queued real release and a pending
        fake release contribute their policy lower bounds.  Injection
        backpressure is not modelled here — a full link port keeps the
        *link* busy, which already pins the system to per-cycle mode.
        """
        event = self.shaper.next_boundary
        if self._buffer:
            real = self.shaper.earliest_real_release(cycle)
            if real is not None and real < event:
                event = real
        if self.generate_fake:
            fake = self.shaper.earliest_fake_release(cycle)
            if fake is not None and fake < event:
                event = fake
        return max(cycle, event)

    def settle(self, cycle: int) -> None:
        """Count the ticks before ``cycle`` that no one ran.

        A tick an engine may leave out (see :meth:`next_event_cycle`)
        releases nothing, so all it does is count a stall while a
        request is queued; the buffer only changes in :meth:`tick` and
        :meth:`submit`, which makes the count a closed form.
        """
        if self._stall_from < cycle:
            if self._buffer:
                self.stall_cycles += cycle - self._stall_from
            self._stall_from = cycle

    def tick(self, cycle: int) -> None:
        """Release at most one transaction (real preferred over fake)."""
        self.settle(cycle)
        self._stall_from = cycle + 1
        self.shaper.advance(cycle, len(self._buffer))
        if not self.link.can_inject(self.port):
            if self._buffer:
                self.stall_cycles += 1
            return
        if self._buffer and self.shaper.can_release_real(cycle):
            txn = self._buffer.popleft()
            bin_index = self.shaper.release_real(cycle)
            txn.shaper_release_cycle = cycle
            self.link.inject(self.port, txn)
            if self.shaper.shapes:
                self.shaped_histogram.record(cycle)
            self.real_sent += 1
            if self.shaper.tracer.enabled:
                self.shaper.tracer.emit(
                    cycle, CATEGORY_SHAPER, "shaper.real_release",
                    core_id=self.core_id, direction="request",
                    bin=bin_index, queued=len(self._buffer),
                )
            return
        if self._buffer:
            self.stall_cycles += 1
        if self.generate_fake and self.shaper.can_release_fake(cycle):
            bin_index = self.shaper.release_fake(cycle)
            fake = self._make_fake(cycle)
            self.link.inject(self.port, fake)
            self.shaped_histogram.record(cycle)
            self.fake_sent += 1
            if self.shaper.tracer.enabled:
                self.shaper.tracer.emit(
                    cycle, CATEGORY_SHAPER, "shaper.fake_inject",
                    core_id=self.core_id, direction="request",
                    bin=bin_index, address=fake.address,
                )

    def _make_fake(self, cycle: int) -> MemoryTransaction:
        """A non-cached read to a random line-aligned address."""
        max_line = max(1, self._address_space // self._line_bytes)
        address = self._rng.randint(0, max_line - 1) * self._line_bytes
        txn = MemoryTransaction(
            core_id=self.core_id,
            address=address,
            kind=TransactionType.FAKE_READ,
            created_cycle=cycle,
        )
        txn.shaper_release_cycle = cycle
        return txn

