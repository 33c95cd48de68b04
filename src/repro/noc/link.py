"""Shared link with round-robin arbitration and fixed hop latency.

One transaction wins arbitration per cycle (single-flit transactions,
link width = one transaction).  A granted transaction arrives
``latency`` cycles later.  Per-port ingress queues are bounded; a full
queue back-pressures the producer (shaper, controller egress), so
contention propagates end to end.

The link records a timestamped trace of every grant — this is the
wire an adversary with pin/bus access probes, so the security analysis
reads :attr:`SharedLink.grant_trace` directly.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

from repro.common.errors import ConfigurationError, ProtocolError
from repro.memctrl.transaction import MemoryTransaction
from repro.obs.events import CATEGORY_NOC
from repro.obs.ring import make_trace_buffer
from repro.obs.tracer import NULL_TRACER


class LinkPort:
    """Bounded ingress queue of one port on a shared link."""

    def __init__(self, port_id: int, capacity: int) -> None:
        self.port_id = port_id
        self._capacity = capacity
        self._queue: Deque[MemoryTransaction] = deque()

    @property
    def occupancy(self) -> int:
        return len(self._queue)

    @property
    def is_full(self) -> bool:
        return len(self._queue) >= self._capacity

    def push(self, txn: MemoryTransaction) -> None:
        if self.is_full:
            raise ProtocolError(f"push into full link port {self.port_id}")
        self._queue.append(txn)

    def pop(self) -> MemoryTransaction:
        return self._queue.popleft()


class SharedLink:
    """A shared, arbitrated, fixed-latency channel.

    Parameters
    ----------
    num_ports:
        Independent producers (one per core on the request link; the
        controller uses per-core ports on the response link too, so
        arbitration fairness is identical in both directions).
    latency:
        Cycles between winning arbitration and arriving.
    port_capacity:
        Ingress queue depth per port; full ⇒ producer back-pressure.
    trace_limit:
        When set, :attr:`grant_trace` keeps only the most recent
        ``trace_limit`` grants (a bounded ring) so multi-million-cycle
        performance runs do not exhaust memory.  ``None`` (default)
        keeps the full trace for the security benchmarks.
    """

    def __init__(self, num_ports: int, latency: int = 4,
                 port_capacity: int = 16,
                 trace_limit: Optional[int] = None) -> None:
        if num_ports <= 0:
            raise ConfigurationError("num_ports must be positive")
        if latency < 1:
            raise ConfigurationError("latency must be at least 1 cycle")
        if port_capacity <= 0:
            raise ConfigurationError("port_capacity must be positive")
        if trace_limit is not None and trace_limit <= 0:
            raise ConfigurationError("trace_limit must be positive")
        self.latency = latency
        self.trace_limit = trace_limit
        self.ports = [LinkPort(i, port_capacity) for i in range(num_ports)]
        self._rr_next = 0
        # (arrival_cycle, txn) in grant order; arrival cycles are
        # monotonically non-decreasing because latency is constant.
        self._in_flight: Deque[Tuple[int, MemoryTransaction]] = deque()
        # Wire trace for the pin/bus-monitoring adversary:
        # (grant_cycle, port, transaction).
        self.grant_trace = self._new_trace()
        self.total_grants = 0
        self.tracer = NULL_TRACER
        self.trace_label = ""

    def _new_trace(self):
        return make_trace_buffer(self.trace_limit)

    def attach_tracer(self, tracer, label: str) -> None:
        """Wire the event tracer in; ``label`` names the channel
        direction ("request"/"response") on emitted grants."""
        self.tracer = tracer
        self.trace_label = label

    # -- producer side -------------------------------------------------

    def can_inject(self, port: int) -> bool:
        return not self.ports[port].is_full

    def inject(self, port: int, txn: MemoryTransaction) -> None:
        self.ports[port].push(txn)

    def occupancy(self, port: int) -> int:
        return self.ports[port].occupancy

    # -- per-cycle operation -----------------------------------------------

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        """Next cycle the link could grant or deliver.

        Buffered flits mean arbitration may run *now* (backpressure is
        the consumer's concern); otherwise the head-of-line in-flight
        arrival is the only timed event.  Idle and empty ⇒ ``None``.
        """
        for port in self.ports:
            if port._queue:
                return cycle
        if self._in_flight:
            return max(cycle, self._in_flight[0][0])
        return None

    def tick(self, cycle: int, dest_ready: bool = True) -> None:
        """Arbitrate one grant (if the consumer has room)."""
        if not dest_ready:
            return
        n = len(self.ports)
        for offset in range(n):
            port = self.ports[(self._rr_next + offset) % n]
            if port._queue:
                txn = port.pop()
                self._in_flight.append((cycle + self.latency, txn))
                self.grant_trace.append((cycle, port.port_id, txn))
                self.total_grants += 1
                self._rr_next = (port.port_id + 1) % n
                if self.tracer.enabled:
                    self.tracer.emit(
                        cycle, CATEGORY_NOC, "noc.grant",
                        core_id=txn.core_id,
                        channel=self.trace_label,
                        port=port.port_id,
                        kind=txn.kind.name,
                    )
                return

    def pop_arrivals(self, cycle: int) -> List[MemoryTransaction]:
        """Transactions whose traversal completes at or before ``cycle``."""
        arrived: List[MemoryTransaction] = []
        while self._in_flight and self._in_flight[0][0] <= cycle:
            arrived.append(self._in_flight.popleft()[1])
        return arrived

    @property
    def in_flight_count(self) -> int:
        return len(self._in_flight)

    def drain_trace(self) -> List[Tuple[int, int, MemoryTransaction]]:
        """Hand over and clear the grant trace (bounded-memory runs)."""
        trace = list(self.grant_trace)
        self.grant_trace = self._new_trace()
        return trace
