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
    raising, or its forked lane keeps dying, across the executor's
    ``max_attempts`` attempts.  ``task_index`` and
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
