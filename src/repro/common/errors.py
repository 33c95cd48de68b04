"""Exception hierarchy for the Camouflage reproduction.

All library-raised exceptions derive from :class:`ReproError` so callers
can catch everything from this package with a single ``except`` clause
while still being able to distinguish configuration mistakes (caller
bugs) from protocol violations (library bugs surfaced by internal
assertions) and runtime simulation failures.
"""


class ReproError(Exception):
    """Base class for every exception raised by this library."""


class ConfigurationError(ReproError):
    """An invalid or inconsistent configuration value was supplied.

    Raised eagerly at construction time so that a bad parameter fails
    the experiment immediately instead of corrupting results mid-run.
    """


class MetricNameError(ConfigurationError):
    """A metric or probe name is invalid for Prometheus exposition.

    Raised at *registration* time (``MetricsRegistry.counter/gauge/
    histogram``, ``IntervalSampler.add_probe``) rather than at render
    time, so a name the OpenMetrics exporter could never emit —
    a leading digit, a ``-``, whitespace — fails the experiment
    immediately instead of producing a malformed ``/metrics`` family
    hours into a run.  ``name`` carries the offending string.
    """

    def __init__(self, message: str, name: str = "") -> None:
        super().__init__(message)
        self.name = name


class TraceFormatError(ConfigurationError):
    """A trace input (file, stream or record list) is malformed.

    Carries the offending ``source`` (file path or a description of
    the in-memory input) and, when known, the 1-based ``line`` number,
    so batch trace conversions can point at the exact broken record.
    Subclasses :class:`ConfigurationError` — existing callers that
    catch the broader class keep working.
    """

    def __init__(self, message: str, source: str = "", line: int = 0) -> None:
        super().__init__(message)
        self.source = source
        self.line = line


class ProtocolError(ReproError):
    """An internal protocol invariant was violated.

    Examples: a DRAM command issued before its timing constraint
    expired, a response delivered for an unknown request id, or a
    shaper consuming a credit from an empty bin.  These indicate bugs
    in the simulator rather than in user configuration.
    """


class QueueOverflowError(ProtocolError):
    """A bounded queue was pushed past its capacity.

    The simulator's queues (the controller's 32-entry transaction
    queue, the write queue, NoC link ports) model finite hardware
    buffers whose fullness *is* the backpressure signal the timing
    channel rides on.  A push into a full queue therefore means a
    producer ignored ``is_full``/``can_accept`` — state silently grew
    where hardware would have stalled.  ``capacity`` and ``depth``
    record the bound and the occupancy at the failed push.
    """

    def __init__(self, message: str, capacity: int = 0, depth: int = 0) -> None:
        super().__init__(message)
        self.capacity = capacity
        self.depth = depth


class SimulationError(ReproError):
    """The simulation reached an unrecoverable runtime state.

    For instance, a watchdog detecting that no component made forward
    progress for an implausibly long time (deadlock), or statistics
    requested before any cycles were simulated.
    """


class WatchdogError(SimulationError):
    """The stall watchdog detected a no-progress livelock/deadlock.

    Subclasses :class:`SimulationError` so existing handlers keep
    working.  ``dump`` holds the structured diagnostic captured at
    abort time (queue depths, per-core pending state, shaper credit
    registers); ``dump_path`` is where it was written as JSON, when a
    dump file was configured.
    """

    def __init__(self, message: str, dump=None, dump_path: str = "") -> None:
        super().__init__(message)
        self.dump = dump if dump is not None else {}
        self.dump_path = dump_path


class ResilienceError(ReproError):
    """Base class for checkpoint/restore and fault-harness failures."""


class WorkerFailureError(ResilienceError):
    """A parallel worker task failed after exhausting its retry budget.

    Raised by :class:`repro.parallel.SweepExecutor` when a task keeps
    raising, keeps timing out, or its worker process keeps dying across
    ``RetryPolicy.max_attempts`` attempts.  ``task_index`` and
    ``label`` identify the shard; ``attempts`` counts what was tried;
    ``last_error`` holds the final attempt's stringified cause (the
    original exception object may not survive the process boundary).
    """

    def __init__(
        self,
        message: str,
        task_index: int = -1,
        label: str = "",
        attempts: int = 0,
        last_error: str = "",
    ) -> None:
        super().__init__(message)
        self.task_index = task_index
        self.label = label
        self.attempts = attempts
        self.last_error = last_error


class SnapshotError(ResilienceError):
    """A snapshot could not be written, parsed or restored.

    Raised on bad magic bytes, a format-version mismatch, a truncated
    payload, or a payload of the wrong kind (e.g. feeding a GA-tuner
    checkpoint to ``repro resume``).
    """


class ShardTimeoutError(ResilienceError):
    """A sweep shard exceeded its per-attempt execution budget.

    Raised by :class:`repro.parallel.SweepExecutor` when a pool lane
    holds a shard past ``RetryPolicy.timeout_seconds`` — a wedged
    simulation (unserviceable shaping configuration in a spawned
    worker, a hung import) must abort the shard with a typed error
    instead of hanging the whole sweep.  ``dump`` carries a
    watchdog-style structured picture of the stuck shard (index,
    label, attempt, timeout, jobs, whether the pool was terminated);
    the executor also mirrors it as a ``parallel.shard_timeout``
    diagnostic event.
    """

    def __init__(
        self,
        message: str,
        task_index: int = -1,
        label: str = "",
        timeout_seconds: float = 0.0,
        dump=None,
    ) -> None:
        super().__init__(message)
        self.task_index = task_index
        self.label = label
        self.timeout_seconds = timeout_seconds
        self.dump = dump if dump is not None else {}


class DispatchError(ResilienceError):
    """Base class for multi-host sweep-dispatch failures.

    Everything the coordinator/worker protocol can get wrong derives
    from here, so dispatch call sites can catch the whole family while
    still telling transport corruption apart from lost hosts and
    expired leases.  ``host`` (``"address:port"``) and ``shard`` (the
    executor's submission index, ``-1`` when not shard-specific)
    identify where the failure happened.
    """

    def __init__(self, message: str, host: str = "", shard: int = -1) -> None:
        super().__init__(message)
        self.host = host
        self.shard = shard


class ShardTransportError(DispatchError):
    """A dispatch frame was corrupt, truncated or malformed.

    Raised when a length-prefixed frame fails its magic, size, digest
    or JSON checks (:mod:`repro.parallel.protocol`), or when a decoded
    message violates the coordinator/worker protocol (wrong kind,
    mismatched shard id).  The contract: a bad frame is *never*
    silently merged — the shard is re-dispatched and the connection
    is retired, because a corrupted length-prefixed stream cannot be
    re-synchronised trustworthily.
    """


class HostLostError(DispatchError):
    """A worker host's connection failed or closed mid-protocol.

    Covers connect refusals, resets, and EOF at a frame boundary —
    the remote process died (crash, SIGKILL, OOM) or the link went
    away.  The coordinator retires the host and re-dispatches its
    in-flight shard to a surviving host.
    """


class LeaseExpiredError(DispatchError):
    """A dispatched shard's lease deadline passed without a heartbeat.

    The worker neither produced a result nor a heartbeat within
    ``lease_seconds``; the host is presumed wedged or partitioned, so
    the coordinator retires it and re-dispatches the shard.
    ``lease_seconds`` records the budget that was exceeded.
    """

    def __init__(
        self,
        message: str,
        host: str = "",
        shard: int = -1,
        lease_seconds: float = 0.0,
    ) -> None:
        super().__init__(message, host=host, shard=shard)
        self.lease_seconds = lease_seconds
