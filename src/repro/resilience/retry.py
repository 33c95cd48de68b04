"""Retry/timeout/backoff policy for operations that may fail transiently.

:class:`RetryPolicy` is the one vocabulary the sweep layer budgets and
paces shard attempts in: a bounded number of attempts, an optional
per-attempt timeout, an optional exponential backoff between attempts.
The shard loop (:class:`repro.parallel.executor.ShardLoop`) is its one
interpreter — it counts the attempts, calls :meth:`RetryPolicy.
backoff_delay`, sleeps, and builds the structured
:class:`~repro.common.errors.WorkerFailureError` when the budget runs
out — so the policy stays a pure, independently tested value.

Backoff is *injectable* where it is interpreted: the loop (and the
dispatch coordinator that configures it) takes ``sleep`` and ``rng``
so tests and the deterministic chaos harness observe the exact delays
without ever sleeping for real.  ``backoff_seconds=0.0`` (the default)
means no sleep callable is ever invoked.

Determinism note: retrying a *deterministic* task is safe by
construction — a repro simulation task is a pure function of its
payload and seed, so attempt N produces the same result attempt 1
would have.  The policy therefore never changes results, only whether
a transient fault (worker killed by the OS, pool torn down, a dispatch
host lost mid-shard) becomes a run-ending error.  Jitter, when
enabled, perturbs only *when* an attempt runs, never *what* it
computes, and draws from a caller-provided RNG so even the delays are
replayable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from repro.common.errors import ConfigurationError
from repro.common.rng import DeterministicRng


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to try a task, how long one attempt may take, and
    how long to wait between attempts.

    ``max_attempts``
        Total attempts including the first (1 = no retries).
    ``timeout_seconds``
        Per-attempt wall-clock budget, or ``None`` for unbounded: the
        lease of a local pool lane (a remote lane's lease is the
        coordinator's ``lease_seconds``).  An attempt past it is
        charged like any other failed attempt.
    ``backoff_seconds``
        Base delay before the *second* attempt.  ``0.0`` (the default)
        disables backoff entirely — no sleep callable is ever invoked.
    ``backoff_factor``
        Multiplier applied per additional failure: the delay before
        attempt ``n+1`` is ``backoff_seconds * backoff_factor**(n-1)``.
    ``backoff_max_seconds``
        Cap on any single delay, or ``None`` for uncapped growth.
    ``jitter_fraction``
        Fraction of the (capped) delay added as uniform random jitter:
        the final delay is ``d * (1 + U[0, jitter_fraction))``.  Jitter
        draws from the ``rng`` passed to :meth:`backoff_delay`, keeping
        delays replayable.
    """

    max_attempts: int = 2
    timeout_seconds: Optional[float] = None
    backoff_seconds: float = 0.0
    backoff_factor: float = 2.0
    backoff_max_seconds: Optional[float] = None
    jitter_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be >= 1")
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ConfigurationError("timeout_seconds must be positive")
        if self.backoff_seconds < 0:
            raise ConfigurationError("backoff_seconds must be >= 0")
        if self.backoff_factor < 1.0:
            raise ConfigurationError("backoff_factor must be >= 1")
        if self.backoff_max_seconds is not None and self.backoff_max_seconds < 0:
            raise ConfigurationError("backoff_max_seconds must be >= 0")
        if not 0.0 <= self.jitter_fraction <= 1.0:
            raise ConfigurationError("jitter_fraction must be in [0, 1]")

    def backoff_delay(
        self, failed_attempts: int, rng: Optional[DeterministicRng] = None
    ) -> float:
        """Delay in seconds before the attempt after ``failed_attempts``
        failures (``failed_attempts >= 1``).

        Pure given its inputs: exponential growth from
        ``backoff_seconds``, capped at ``backoff_max_seconds``, plus
        jitter drawn from ``rng`` when ``jitter_fraction > 0``.  With
        jitter enabled but no ``rng`` supplied the deterministic
        midpoint (half the jitter range) is used, so callers that do
        not care about jitter spread still get reproducible delays.
        """
        if failed_attempts < 1:
            raise ConfigurationError("failed_attempts must be >= 1")
        if self.backoff_seconds == 0.0:
            return 0.0
        delay = self.backoff_seconds * self.backoff_factor ** (failed_attempts - 1)
        if self.backoff_max_seconds is not None:
            delay = min(delay, self.backoff_max_seconds)
        if self.jitter_fraction > 0.0:
            if rng is not None:
                fraction = rng.random() * self.jitter_fraction
            else:
                fraction = self.jitter_fraction / 2.0
            delay *= 1.0 + fraction
        return delay


#: The executor default: one retry, no timeout, no backoff.
DEFAULT_RETRY_POLICY = RetryPolicy()


def _default_sleep(seconds: float) -> None:
    """Real wall-clock sleep; only reached when a policy enables backoff."""
    # repro-lint: disable-next-line=RL001 — retry backoff is wall-clock
    time.sleep(seconds)
