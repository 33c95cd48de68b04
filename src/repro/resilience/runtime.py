"""Resilience configuration and its per-system runtime.

:class:`ResilienceConfig` is the frozen user-facing knob set, attached
via :meth:`SystemBuilder.with_resilience`; :class:`ResilienceRuntime`
is the live object the built :class:`~repro.sim.system.System` carries:
it owns the fault injector and the periodic-checkpoint machinery the
run loop drives.  The runtime pickles with the system (a checkpoint of
a checkpointing run resumes checkpointing).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.common.rng import DeterministicRng
from repro.obs.events import CATEGORY_RESILIENCE
from repro.obs.tracer import NULL_TRACER
from repro.resilience.faults import FaultInjector, FaultSpec
from repro.resilience.snapshot import snapshot_system


@dataclass(frozen=True)
class ResilienceConfig:
    """Everything :meth:`SystemBuilder.with_resilience` can switch on.

    ``checkpoint_every``
        Snapshot the whole system every N cycles (0 disables).  Under
        the next-event engine, clock jumps are capped at checkpoint
        boundaries so snapshots land exactly on multiples of N —
        behaviour-preserving by the engine's no-state-change guarantee.
    ``checkpoint_dir`` / ``checkpoint_keep``
        Where snapshots go and how many of the most recent to retain.
    ``watchdog_cycles`` / ``watchdog_dump_path``
        Stall budget (``None`` defers to ``System.run``'s argument;
        0 disables) and an optional JSON dump file written when the
        watchdog trips.
    ``faults`` / ``fault_seed``
        Fault specs for the injection harness and the seed salt for
        its private RNG stream.
    """

    checkpoint_every: int = 0
    checkpoint_dir: str = "checkpoints"
    checkpoint_keep: int = 3
    watchdog_cycles: Optional[int] = None
    watchdog_dump_path: str = ""
    faults: Tuple[FaultSpec, ...] = field(default_factory=tuple)
    fault_seed: int = 0xFA

    def __post_init__(self) -> None:
        if self.checkpoint_every < 0:
            raise ConfigurationError("checkpoint_every must be >= 0")
        if self.checkpoint_every and not self.checkpoint_dir:
            raise ConfigurationError(
                "checkpointing needs a checkpoint_dir"
            )
        if self.checkpoint_keep < 1:
            raise ConfigurationError("checkpoint_keep must be >= 1")
        if self.watchdog_cycles is not None and self.watchdog_cycles < 0:
            raise ConfigurationError("watchdog_cycles must be >= 0")
        # Tolerate a list in user code; store canonically as a tuple.
        if not isinstance(self.faults, tuple):
            object.__setattr__(self, "faults", tuple(self.faults))


class ResilienceRuntime:
    """The live resilience state of one built system."""

    def __init__(self, config: ResilienceConfig, rng: DeterministicRng) -> None:
        self.config = config
        self.injector: Optional[FaultInjector] = None
        if config.faults:
            self.injector = FaultInjector(
                config.faults, rng.fork(0xFA17 + config.fault_seed)
            )
        self.tracer = NULL_TRACER
        self.checkpoints_taken = 0
        self.last_checkpoint_path = ""
        self._written: List[str] = []

    def attach_tracer(self, tracer) -> None:
        self.tracer = tracer
        if self.injector is not None:
            self.injector.attach_tracer(tracer)

    # -- checkpointing ----------------------------------------------------

    def checkpoint_path(self, cycle: int) -> str:
        return os.path.join(
            self.config.checkpoint_dir, f"checkpoint-{cycle:012d}.snap"
        )

    def next_checkpoint_boundary(self, cycle: int) -> int:
        """Smallest checkpoint multiple strictly after ``cycle``."""
        every = self.config.checkpoint_every
        return (cycle // every + 1) * every

    def take_checkpoint(self, system) -> str:
        """Snapshot ``system`` at its current cycle; prune old files.

        All runtime bookkeeping (counter, retention list, trace event)
        is applied *before* the snapshot is written, so the snapshot
        contains its own checkpoint record — a resumed run's event
        stream and runtime state then match the uninterrupted run's
        exactly.
        """
        path = self.checkpoint_path(system.current_cycle)
        self.checkpoints_taken += 1
        self.last_checkpoint_path = path
        if path not in self._written:
            self._written.append(path)
        while len(self._written) > self.config.checkpoint_keep:
            stale = self._written.pop(0)
            try:
                os.remove(stale)
            except OSError:
                # Pruning is best-effort: a checkpoint someone moved or
                # deleted out from under us is not an error.
                pass
        if self.tracer.enabled:
            self.tracer.emit(
                system.current_cycle, CATEGORY_RESILIENCE,
                "resilience.checkpoint",
                ordinal=self.checkpoints_taken,
            )
        snapshot_system(system, path)
        return path
