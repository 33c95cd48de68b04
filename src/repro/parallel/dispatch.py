"""Fault-tolerant multi-host sweep dispatch.

:class:`DispatchCoordinator` gives a :class:`~repro.parallel.executor.
SweepExecutor`'s shard loop its *remote lanes* — one per worker host
(:mod:`repro.parallel.worker`), speaking the digest-verified frame
protocol (:mod:`repro.parallel.protocol`) — and keeps the account of
what happened on them.  The loop itself
(:class:`~repro.parallel.executor.ShardLoop`: queue, attempt budget,
backoff, requeue, the typed failure at the budget) is the one every
local run uses too; what is particular to a remote lane lives here:

* **leases** — each dispatched shard carries a lease id; the lane's
  wait for the next frame is bounded by ``lease_seconds``, and the
  worker's heartbeats (sent while its pool executes) renew that wait.
  Silence past the deadline is a
  :class:`~repro.common.errors.LeaseExpiredError`: the host is
  presumed wedged or partitioned.
* **a lane that can be lost** — a lost host (connect failure, reset,
  EOF), an expired lease, a corrupt frame or a version mismatch
  retires that host for the rest of the coordinator's life and hands
  the shard back to the loop *uncharged* (the task never got a chance
  to be wrong).  Task-raised exceptions are different: they travel
  in-band and are charged against ``max_attempts`` exactly as on a
  local lane.
* **the local lanes are the last lanes** — the executor's own lanes
  ride along and take shards only once every host is retired, flagged
  via the ``dispatch.degraded`` event and gauge; the sweep
  *completes*, it never silently loses shards.
* **ledger** — every transition is recorded in a
  :class:`~repro.parallel.ledger.DispatchLedger` (atomic rewrites),
  so an interrupted sweep leaves an honest on-disk account and the
  re-run serves completed shards from the result cache.

Determinism: the coordinator owns *placement and recovery*, never
*results*.  Shard payloads, seeds and the submission-order merge are
all fixed by the executor before dispatch begins, so which host runs
a shard — or whether it ran twice, or locally — is unobservable in
the merged output.  The coordinator's own ``dispatch.*`` metrics live
in a **separate registry** from the executor's merged sweep registry
for the same reason: host counts and re-dispatches are run-dependent
and must not leak into the byte-identical exposition.

The :class:`ChaosProxy` makes the failure paths testable the way the
resilience layer's :class:`~repro.resilience.faults.FaultInjector`
made shaper faults testable: frozen spec dataclasses keyed off shard
index (never wall clock), firing deterministically at the
coordinator's transport boundary.
"""

from __future__ import annotations

import socket
import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import repro
from repro.common.errors import (
    ConfigurationError,
    DispatchError,
    HostLostError,
    LeaseExpiredError,
    ShardTransportError,
)
from repro.common.rng import DeterministicRng
from repro.obs import diag
from repro.obs.events import CATEGORY_DISPATCH
from repro.obs.metrics import MetricsRegistry
from repro.parallel.executor import LaneLost, ShardLoop, TaskFailed
from repro.parallel.ledger import DispatchLedger
from repro.parallel.protocol import FrameChannel, hello_payload
from repro.parallel.worker import task_spec
from repro.resilience.retry import RetryPolicy, _default_sleep

#: Dispatch default: three tries per shard, exponential backoff between
#: re-dispatches starting at 100 ms, capped at 2 s.
DEFAULT_DISPATCH_RETRY_POLICY = RetryPolicy(
    max_attempts=3,
    backoff_seconds=0.1,
    backoff_factor=2.0,
    backoff_max_seconds=2.0,
)

#: Default lease deadline: how long the coordinator waits for a frame
#: (result *or* heartbeat) before declaring the shard's host wedged.
DEFAULT_LEASE_SECONDS = 30.0

#: TCP connect budget per host.
DEFAULT_CONNECT_TIMEOUT = 5.0


def parse_hosts(spec: str) -> List[Tuple[str, int]]:
    """Parse ``"host:port,host:port"`` (the ``--hosts`` flag)."""
    out: List[Tuple[str, int]] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        host, sep, port = part.rpartition(":")
        if not sep or not host:
            raise ConfigurationError(
                f"host spec {part!r} is not of the form 'host:port'"
            )
        try:
            out.append((host, int(port)))
        except ValueError as exc:
            raise ConfigurationError(
                f"host spec {part!r} has a non-integer port"
            ) from exc
    if not out:
        raise ConfigurationError(f"no hosts in spec {spec!r}")
    return out


# -- chaos ------------------------------------------------------------


@dataclass(frozen=True)
class HostCrash:
    """Retire the host that picks up ``shard_index``, at send time.

    Models a worker process dying between accepting a shard and
    acknowledging it: the coordinator sees the connection vanish
    (:class:`HostLostError`) and must re-dispatch elsewhere.
    """

    shard_index: int


@dataclass(frozen=True)
class LinkStall:
    """Stall the link while ``shard_index`` is in flight.

    The coordinator's frame wait times out exactly as if heartbeats
    stopped arriving — the lease expires and the shard re-dispatches.
    """

    shard_index: int


@dataclass(frozen=True)
class FrameCorruption:
    """Corrupt the frame carrying ``shard_index``'s result.

    The digest check fails (:class:`ShardTransportError`); the
    contract under test is that a corrupt frame is *never* merged —
    the shard re-runs and the stream is abandoned.
    """

    shard_index: int


@dataclass(frozen=True)
class SlowHost:
    """Inject ``heartbeats`` synthetic heartbeats before
    ``shard_index``'s real result frame.

    Exercises the lease-renewal path: a slow-but-alive host must keep
    its lease and its shard, with zero effect on the merged output.
    """

    shard_index: int
    heartbeats: int = 3


class ChaosProxy:
    """Deterministic failure injection at the coordinator's transport
    boundary.

    Specs are keyed off the *shard index* being dispatched — never
    wall clock, thread timing, or host identity alone — so a chaos
    scenario replays identically on every run (the FaultInjector
    discipline from :mod:`repro.resilience.faults`).  Each spec fires
    exactly once; everything that fires is appended to :attr:`log`.
    """

    def __init__(self, specs: Sequence[Any] = ()) -> None:
        for spec in specs:
            if not isinstance(
                spec, (HostCrash, LinkStall, FrameCorruption, SlowHost)
            ):
                raise ConfigurationError(
                    f"unknown chaos spec {type(spec).__name__}"
                )
        self.specs = tuple(specs)
        self.log: List[Dict[str, Any]] = []
        self._fired: set = set()
        self._lock = threading.Lock()

    def _fire(self, position: int, spec: Any, host: str, shard: int) -> None:
        self.log.append(
            {
                "spec": type(spec).__name__,
                "shard": shard,
                "host": host,
            }
        )
        self._fired.add(position)

    def before_send(self, host: str, shard: int) -> None:
        """Hook before a shard frame is sent; may raise."""
        with self._lock:
            for position, spec in enumerate(self.specs):
                if position in self._fired:
                    continue
                if isinstance(spec, HostCrash) and spec.shard_index == shard:
                    self._fire(position, spec, host, shard)
                    raise HostLostError(
                        "chaos: host crashed taking shard "
                        f"{shard}", host=host, shard=shard,
                    )

    def recv(
        self,
        host: str,
        shard: int,
        lease: str,
        real_recv: Callable[[], Tuple[str, Any]],
    ) -> Tuple[str, Any]:
        """Hook around one frame receive; may raise or inject."""
        with self._lock:
            for position, spec in enumerate(self.specs):
                if position in self._fired:
                    continue
                if not isinstance(
                    spec, (LinkStall, FrameCorruption, SlowHost)
                ) or spec.shard_index != shard:
                    continue
                if isinstance(spec, LinkStall):
                    self._fire(position, spec, host, shard)
                    raise socket.timeout(
                        f"chaos: link stalled on shard {shard}"
                    )
                if isinstance(spec, FrameCorruption):
                    self._fire(position, spec, host, shard)
                    raise ShardTransportError(
                        f"chaos: frame digest mismatch on shard {shard}",
                        host=host, shard=shard,
                    )
                if isinstance(spec, SlowHost):
                    remaining = self._slow_remaining(position, spec)
                    if remaining > 0:
                        self._slow_consume(position)
                        return (
                            "heartbeat",
                            {
                                "shard": shard,
                                "lease": lease,
                                "seq": spec.heartbeats - remaining + 1,
                                "synthetic": True,
                            },
                        )
                    self._fire(position, spec, host, shard)
        return real_recv()

    # SlowHost needs per-spec countdown state; keep it out of the
    # frozen spec itself.
    def _slow_remaining(self, position: int, spec: SlowHost) -> int:
        if not hasattr(self, "_slow_state"):
            self._slow_state: Dict[int, int] = {}
        return self._slow_state.setdefault(position, spec.heartbeats)

    def _slow_consume(self, position: int) -> None:
        self._slow_state[position] -= 1


# -- coordinator ------------------------------------------------------


class _RemoteLane:
    """One worker host, as the shard loop sees it: a lane that can be
    lost.  Lives as long as its coordinator (the connection and the
    retirement outlast a sweep); ``spec`` names the running sweep's
    task."""

    local = False

    def __init__(self, owner: "DispatchCoordinator",
                 address: Tuple[str, int]) -> None:
        self.owner = owner
        self.address = address
        self.channel: Optional[FrameChannel] = None
        self.alive = True
        self.spec = ""

    @property
    def name(self) -> str:
        return f"{self.address[0]}:{self.address[1]}"

    def connect(self) -> None:
        """Connect + handshake; raises DispatchError flavours."""
        if self.channel is not None:
            return
        timeout = self.owner.connect_timeout
        try:
            sock = socket.create_connection(self.address, timeout=timeout)
        except OSError as exc:
            raise HostLostError(
                f"connect to {self.name} failed: {exc}", host=self.name
            ) from exc
        channel = FrameChannel(sock, self.name)
        try:
            channel.send(
                "hello", hello_payload(repro.__version__, "coordinator")
            )
            try:
                kind, payload = channel.recv(timeout=timeout)
            except socket.timeout as exc:
                raise HostLostError(
                    f"handshake with {self.name} timed out", host=self.name
                ) from exc
            if kind != "hello_ack" or not isinstance(payload, dict):
                detail = ""
                if kind == "error" and isinstance(payload, dict):
                    detail = f": {payload.get('error', '')}"
                raise ShardTransportError(
                    f"handshake with {self.name} rejected ({kind}){detail}",
                    host=self.name,
                )
            if payload.get("code_version") != repro.__version__:
                raise ShardTransportError(
                    f"{self.name} runs code_version "
                    f"{payload.get('code_version')!r} != "
                    f"{repro.__version__} — results would not be "
                    "cache-compatible",
                    host=self.name,
                )
        except DispatchError:
            channel.close()
            raise
        self.channel = channel
        self.owner._emit("dispatch.host_up", host=self.name)

    def close(self) -> None:
        if self.channel is not None:
            self.channel.close()
            self.channel = None

    def _retire(self, error: BaseException) -> LaneLost:
        """Retire this host for good; returns what to raise to the loop."""
        owner = self.owner
        self.alive = False
        owner._gauge_hosts_alive()
        owner._count("dispatch.hosts_retired")
        self.close()
        reason = f"{type(error).__name__}: {error}"
        owner._emit("dispatch.host_retired", host=self.name, error=reason)
        return LaneLost(reason)

    def open(self) -> None:
        if not self.alive:
            raise LaneLost(f"{self.name} was retired by an earlier sweep")
        try:
            self.connect()
        except DispatchError as exc:
            raise self._retire(exc) from exc
        self.owner._gauge_hosts_alive()

    def execute(self, pending: Any) -> Any:
        try:
            return self._lease(pending)
        except (LeaseExpiredError, ShardTransportError, HostLostError) as exc:
            if isinstance(exc, LeaseExpiredError):
                self.owner._count("dispatch.lease_expiries")
            elif isinstance(exc, ShardTransportError):
                self.owner._count("dispatch.transport_errors")
            raise self._retire(exc) from exc

    def _lease(self, pending: Any) -> Any:
        """Send the shard, then wait out its lease for the result."""
        owner, shard = self.owner, pending.shard
        lease = f"{shard.index}:{pending.attempts + 1}"
        if owner.chaos is not None:
            owner.chaos.before_send(self.name, shard.index)
        channel = self.channel
        assert channel is not None
        channel.send(
            "shard",
            {
                "shard": shard.index,
                "lease": lease,
                "fn": self.spec,
                "payload": shard.payload,
                "task_seed": shard.task_seed,
                "label": shard.label,
            },
        )
        owner._count("dispatch.shards_dispatched")
        owner.ledger.record(
            shard.index, "leased", label=shard.label, host=self.name,
            attempts=pending.attempts + 1,
        )
        owner._emit(
            "dispatch.shard_leased", shard=shard.index, host=self.name,
            lease=lease,
        )

        def real_recv() -> Tuple[str, Any]:
            return channel.recv(timeout=owner.lease_seconds)

        while True:
            try:
                if owner.chaos is not None:
                    kind, payload = owner.chaos.recv(
                        self.name, shard.index, lease, real_recv
                    )
                else:
                    kind, payload = real_recv()
            except socket.timeout as exc:
                raise LeaseExpiredError(
                    f"lease {lease} on {self.name} expired after "
                    f"{owner.lease_seconds}s without heartbeat or result",
                    host=self.name, shard=shard.index,
                    lease_seconds=owner.lease_seconds,
                ) from exc
            if not isinstance(payload, dict):
                raise ShardTransportError(
                    f"non-object {kind!r} payload from {self.name}",
                    host=self.name, shard=shard.index,
                )
            if payload.get("lease") != lease:
                # A frame from a previous lease (e.g. a result that
                # raced its own expiry): log and keep waiting — stale
                # results are *never* merged.
                owner._emit(
                    "dispatch.stale_frame", shard=shard.index,
                    host=self.name, kind=kind,
                    stale_lease=str(payload.get("lease")),
                )
                continue
            if kind == "heartbeat":
                owner._count("dispatch.heartbeats")
                owner._emit(
                    "dispatch.heartbeat", shard=shard.index,
                    host=self.name, seq=payload.get("seq", 0),
                )
                continue
            if kind == "result":
                if payload.get("ok"):
                    return payload.get("value")
                raise TaskFailed(payload.get("error", "unknown error"))
            raise ShardTransportError(
                f"unexpected {kind!r} frame from {self.name} while "
                f"waiting on lease {lease}",
                host=self.name, shard=shard.index,
            )


class DispatchCoordinator:
    """Runs shards on worker hosts; survives the hosts not surviving.

    Parameters
    ----------
    hosts:
        ``(host, port)`` pairs, or a ``"h:p,h:p"`` spec string.
    retry:
        The :class:`RetryPolicy` of a dispatched sweep, on every lane:
        ``max_attempts`` bounds charged attempts per shard, the backoff
        fields pace every requeue.
    lease_seconds:
        Frame-wait deadline per dispatched shard (renewed by
        heartbeats) — the remote lanes' lease.
    ledger:
        Path, :class:`DispatchLedger`, or ``None`` (in-memory ledger).
    chaos:
        Optional :class:`ChaosProxy`.
    sleep, rng:
        Injectable backoff primitives (tests pass recorders); the
        defaults are the real ``time.sleep`` and midpoint jitter.
    """

    def __init__(
        self,
        hosts: Any,
        retry: RetryPolicy = DEFAULT_DISPATCH_RETRY_POLICY,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
        ledger: Any = None,
        chaos: Optional[ChaosProxy] = None,
        sleep: Callable[[float], None] = _default_sleep,
        rng: Optional[DeterministicRng] = None,
        connect_timeout: float = DEFAULT_CONNECT_TIMEOUT,
    ) -> None:
        if isinstance(hosts, str):
            hosts = parse_hosts(hosts)
        if not hosts:
            raise ConfigurationError("dispatch needs at least one host")
        if lease_seconds <= 0:
            raise ConfigurationError("lease_seconds must be positive")
        self.retry = retry
        self.lease_seconds = lease_seconds
        self.connect_timeout = connect_timeout
        self.chaos = chaos
        self._sleep = sleep
        self._rng = rng
        if isinstance(ledger, str):
            ledger = DispatchLedger(ledger)
        self.ledger: DispatchLedger = (
            ledger if ledger is not None else DispatchLedger(None)
        )
        self._hosts = [_RemoteLane(self, tuple(addr)) for addr in hosts]
        self.degraded = False
        # Lanes report from their own threads; counter adds are racy.
        self._lock = threading.Lock()
        self.registry = MetricsRegistry()
        self.registry.gauge("dispatch.hosts_configured").set(len(self._hosts))
        self.registry.gauge("dispatch.hosts_alive").set(0)
        self.registry.gauge("dispatch.degraded").set(0)
        # Pre-register every counter family so `repro dispatch status`
        # and scrapes see a stable zero-filled set, not one that grows
        # as failures happen to occur.
        for family in (
            "dispatch.shards_dispatched",
            "dispatch.shards_completed",
            "dispatch.cached_shards",
            "dispatch.redispatches",
            "dispatch.heartbeats",
            "dispatch.task_failures",
            "dispatch.transport_errors",
            "dispatch.lease_expiries",
            "dispatch.hosts_retired",
            "dispatch.local_fallback_shards",
        ):
            self.registry.counter(family)

    def _emit(self, name: str, shard: int = -1, **args: Any) -> None:
        diag.emit_diagnostic(
            name, category=CATEGORY_DISPATCH, shard=shard, **args
        )

    def _count(self, family: str) -> None:
        with self._lock:
            self.registry.counter(family).inc()

    def _gauge_hosts_alive(self) -> None:
        with self._lock:
            self.registry.gauge("dispatch.hosts_alive").set(
                sum(1 for lane in self._hosts if lane.alive)
            )

    def close(self) -> None:
        """Drop all connections (worker hosts keep serving)."""
        for lane in self._hosts:
            lane.close()

    # -- the run ------------------------------------------------------

    def run(
        self,
        fn: Callable[..., Any],
        shards: Sequence[Any],
        kind: str = "",
        cached_shards: Sequence[Any] = (),
        local_lanes: Sequence[Any] = (),
        observers: Sequence[Callable[..., None]] = (),
    ) -> Dict[int, Any]:
        """Execute ``shards`` across the hosts; returns index->result.

        ``cached_shards`` are recorded in the ledger (state
        ``cached``) but never dispatched — the executor already served
        them from the result cache.  ``local_lanes`` are the last
        lanes: they run whatever is unresolved once every host is
        retired; with none, that is a :class:`DispatchError`.
        ``observers`` join this coordinator in watching the loop.
        """
        spec = task_spec(fn)
        self.ledger.begin(
            kind or spec,
            [h.name for h in self._hosts],
            len(shards) + len(cached_shards),
        )
        for shard in cached_shards:
            self._count("dispatch.cached_shards")
            self.ledger.record(
                shard.index, "cached", label=shard.label,
                digest=getattr(shard, "digest", None) or "",
            )
        for shard in shards:
            self.ledger.record(shard.index, "queued", label=shard.label)
        self._emit(
            "dispatch.sweep_begin", kind=kind or spec,
            shards=len(shards), cached=len(cached_shards),
            hosts=len(self._hosts),
        )
        for lane in self._hosts:
            lane.spec = spec
        # Local lanes first: the loop drives lanes[0] on this thread.
        results = ShardLoop(
            shards, [*local_lanes, *self._hosts], self.retry,
            self._sleep, self._rng, [self._observe, *observers],
        ).run()
        self._emit(
            "dispatch.sweep_done", shards=len(shards),
            degraded=self.degraded,
        )
        return results

    def _observe(self, event: str, pending: Any, lane: Any,
                 **info: Any) -> None:
        """The ``dispatch.*`` side of a shard-loop transition: counters,
        ledger and events."""
        if event == "degraded":
            self.degraded = True
            self.registry.gauge("dispatch.degraded").set(1)
            self.ledger.set_degraded(True)
            self._emit(
                "dispatch.degraded", shards=info["shards"],
                reason="all hosts retired",
            )
            return
        shard = pending.shard
        if event == "done" and lane.local:
            self._count("dispatch.local_fallback_shards")
            self.ledger.record(
                shard.index, "local", label=shard.label,
                attempts=pending.attempts + 1,
            )
        elif event == "done":
            self._count("dispatch.shards_completed")
            self.ledger.record(
                shard.index, "completed", label=shard.label,
                host=lane.name, attempts=pending.attempts + 1,
                digest=getattr(shard, "digest", None) or "",
            )
            self._emit(
                "dispatch.shard_done", shard=shard.index, host=lane.name,
                attempts=pending.attempts + 1,
            )
        elif event == "charged":
            self._count("dispatch.task_failures")
            self._emit(
                "dispatch.shard_task_failed", shard=shard.index,
                host=lane.name, attempts=pending.attempts,
                error=info["error"],
            )
            if info["terminal"]:
                self.ledger.record(
                    shard.index, "failed", label=shard.label,
                    attempts=pending.attempts, detail=info["error"],
                )
        elif event == "requeued":
            self._count("dispatch.redispatches")
            self.ledger.record(
                shard.index, "requeued", label=shard.label,
                attempts=pending.attempts,
            )
            self._emit(
                "dispatch.shard_requeued", shard=shard.index,
                attempts=pending.attempts, reason=info["reason"],
                backoff_seconds=info["backoff_seconds"],
            )
