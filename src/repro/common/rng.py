"""Deterministic random number generation.

Every stochastic component in the simulator (workload generators, fake
traffic address selection, genetic-algorithm operators) draws from a
:class:`DeterministicRng` seeded from the experiment configuration.
This keeps whole-system runs bit-for-bit reproducible, which the test
suite and the benchmark harness both rely on.

The implementation wraps :class:`random.Random` (a Mersenne twister)
rather than ``numpy`` so that single-draw call sites stay cheap and the
stream is stable across numpy versions.  Components that need bulk
vectorised draws can call :meth:`DeterministicRng.numpy_generator`,
which is the only place this module loads numpy: importing it (and so
``import repro``) does not.
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np


class DeterministicRng:
    """A seeded random source with convenience helpers.

    Parameters
    ----------
    seed:
        Any integer.  Two instances built with the same seed produce
        identical streams.
    """

    def __init__(self, seed: int) -> None:
        self._seed = int(seed)
        self._random = random.Random(self._seed)

    @property
    def seed(self) -> int:
        """The seed this generator was constructed with."""
        return self._seed

    @property
    def twister(self) -> random.Random:
        """The underlying Mersenne twister, for hot loops that bind its
        methods; draws from it advance this generator's stream."""
        return self._random

    def fork(self, salt: int) -> "DeterministicRng":
        """Derive an independent child generator.

        Forking lets each subsystem own a private stream so that adding
        a draw in one component does not perturb any other component's
        sequence.  The child seed mixes the parent seed with ``salt``
        using splitmix64-style constants.
        """
        mixed = (self._seed * 0x9E3779B97F4A7C15 + salt * 0xBF58476D1CE4E5B9) & (
            (1 << 64) - 1
        )
        return DeterministicRng(mixed)

    def substream(self, task_id: int) -> "DeterministicRng":
        """Derive the worker stream for parallel task ``task_id``.

        Unlike :meth:`fork` (a fast linear mix for in-process
        subsystems), substream derivation is domain-separated through
        SHA-256 over ``(tag, seed, task_id)``: the child seed cannot
        collide with the parent seed, with any :meth:`fork` child, or
        with another task's substream short of a hash collision.  This
        is the derivation :class:`repro.parallel.SweepExecutor` uses to
        seed worker processes — it depends only on the construction
        seed and the task id, never on draws already taken from this
        generator or on worker scheduling, so a task's stream is the
        same under any ``--jobs`` value and under fork or spawn start
        methods.
        """
        if task_id < 0:
            raise ValueError(f"task_id must be non-negative, got {task_id}")
        material = b"repro.substream\x00%d\x00%d" % (self._seed, task_id)
        digest = hashlib.sha256(material).digest()
        return DeterministicRng(int.from_bytes(digest[:8], "big"))

    def numpy_generator(self) -> np.random.Generator:
        """Return a numpy Generator seeded from this stream."""
        import numpy as np

        return np.random.default_rng(self._random.getrandbits(64))

    # -- scalar draws -------------------------------------------------

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in the inclusive range ``[low, high]``."""
        return self._random.randint(low, high)

    def random(self) -> float:
        """Uniform float in ``[0, 1)``."""
        return self._random.random()

    def choice(self, seq):
        """Uniformly pick one element of a non-empty sequence."""
        return self._random.choice(seq)

    def shuffle(self, seq) -> None:
        """Shuffle ``seq`` in place."""
        self._random.shuffle(seq)

    def sample(self, seq, k: int):
        """Sample ``k`` distinct elements from ``seq``."""
        return self._random.sample(seq, k)

    def expovariate(self, rate: float) -> float:
        """Exponentially distributed float with the given rate."""
        return self._random.expovariate(rate)

    def gauss(self, mu: float, sigma: float) -> float:
        """Normally distributed float."""
        return self._random.gauss(mu, sigma)

    def geometric(self, p: float) -> int:
        """Geometrically distributed trial count (support ``>= 1``).

        ``p`` is the per-trial success probability; the return value is
        the index of the first success.
        """
        if not 0.0 < p <= 1.0:
            raise ValueError(f"geometric probability must be in (0, 1], got {p}")
        if p == 1.0:
            return 1
        # Inverse-CDF sampling keeps this a single draw.
        u = self._random.random()
        return int(math.floor(math.log(1.0 - u) / math.log(1.0 - p))) + 1
