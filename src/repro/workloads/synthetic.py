"""Parameterized synthetic memory-trace generation.

The generator produces :class:`~repro.cpu.trace.MemoryTrace`s from a
small set of interpretable knobs:

* **Intensity** — mean non-memory instructions between accesses
  (``gap_mean``); MPKI = 1000 / (gap_mean + 1).
* **Burstiness** — a two-state (ON/OFF) Markov modulation of the gap:
  in OFF state gaps stretch by ``off_gap_multiplier``.  This produces
  the bursty phase behaviour that the covert channel exploits and that
  distinguishes e.g. apache from a steady streamer.
* **Spatial locality** — with probability ``seq_prob`` the next access
  is the next cache line (row-buffer friendly streaming); otherwise it
  jumps uniformly inside the working set (row-buffer hostile pointer
  chasing).
* **Working set** — addresses are confined to ``working_set_bytes``
  above a per-trace base; sets larger than the LLC produce memory
  traffic, smaller ones get filtered on chip.

All draws come from a :class:`~repro.common.rng.DeterministicRng`, so
a (parameters, seed) pair is a complete, reproducible workload
description.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from math import floor, log
from typing import List, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.common.rng import DeterministicRng
from repro.cpu.trace import MemoryTrace, TraceRecord


@dataclass(frozen=True)
class TraceParameters:
    """Knobs of the synthetic generator (see module docstring)."""

    gap_mean: float = 100.0
    seq_prob: float = 0.5
    working_set_bytes: int = 4 * 1024 * 1024
    write_fraction: float = 0.25
    p_enter_off: float = 0.02
    p_exit_off: float = 0.1
    off_gap_multiplier: float = 8.0
    line_bytes: int = 64
    base_address: int = 0

    def __post_init__(self) -> None:
        if self.gap_mean < 0:
            raise ConfigurationError("gap_mean must be non-negative")
        for name in ("seq_prob", "write_fraction", "p_enter_off", "p_exit_off"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{name} must be a probability: {value}")
        if self.working_set_bytes < self.line_bytes:
            raise ConfigurationError("working set smaller than one line")
        if self.off_gap_multiplier < 1.0:
            raise ConfigurationError("off_gap_multiplier must be >= 1")

    @property
    def mpki(self) -> float:
        """Approximate memory accesses per kilo-instruction."""
        return 1000.0 / (self.gap_mean + 1.0)

    @property
    def working_set_lines(self) -> int:
        return self.working_set_bytes // self.line_bytes


def _log_miss(p: float) -> Optional[float]:
    """``log(1 - p)`` of a geometric draw's success probability ``p``,
    or ``None`` when ``p`` is 1 and the draw is always the first trial
    (no random number is taken)."""
    if not 0.0 < p <= 1.0:
        raise ValueError(f"geometric probability must be in (0, 1], got {p}")
    return None if p == 1.0 else log(1.0 - p)


class SyntheticTraceGenerator:
    """Stateful generator producing one reproducible trace."""

    def __init__(self, params: TraceParameters, rng: DeterministicRng) -> None:
        self.params = params
        self._rng = rng
        line = rng.randint(0, params.working_set_lines - 1)
        self._pointer = params.base_address + line * params.line_bytes
        self._in_off_state = False

    def columns(self, count: int) -> Tuple[array, array, bytes]:
        """Generate the next ``count`` records as trace columns.

        Returns ``(gaps, addresses, writes)`` in
        :class:`~repro.cpu.trace.MemoryTrace`'s layout.  Each record
        takes its draws in a fixed order: the ON/OFF Markov step, the
        geometric gap, the sequential-or-jump address, then the write
        flag.  Changing that order changes every trace.  The gap is
        :meth:`~repro.common.rng.DeterministicRng.geometric` minus one
        and the jump ``randint(0, lines - 1)``, both inlined on the
        bound Mersenne twister so they take the same bits.
        """
        params = self.params
        twister = self._rng.twister
        random, getrandbits = twister.random, twister.getrandbits
        p_enter, p_exit = params.p_enter_off, params.p_exit_off
        seq_prob, write_fraction = params.seq_prob, params.write_fraction
        line_bytes, base = params.line_bytes, params.base_address
        limit = base + params.working_set_bytes
        # ``randint(0, last line)``: rejection-sample ``bits`` random
        # bits below the line count.
        lines = params.working_set_lines
        bits = lines.bit_length()
        # Geometric gaps give an exponential-like inter-access pattern
        # with integer support, matching miss-gap measurements from
        # real traces far better than a constant.  The gap is the
        # inverse CDF ``floor(log(1 - u) / log(1 - p))`` of one draw;
        # ``None`` is a gap with no draw at all (a zero mean, p = 1).
        on_mean = params.gap_mean
        off_mean = on_mean * params.off_gap_multiplier
        on_log = _log_miss(1.0 / (on_mean + 1.0)) if on_mean > 0 else None
        off_log = _log_miss(1.0 / (off_mean + 1.0)) if off_mean > 0 else None

        pointer, off = self._pointer, self._in_off_state
        gaps, addresses, writes = array("q"), array("q"), bytearray()
        add_gap, add_address, add_write = (
            gaps.append, addresses.append, writes.append
        )
        for _ in range(count):
            if off:
                if random() < p_exit:
                    off = False
            elif random() < p_enter:
                off = True
            gap_log = off_log if off else on_log
            add_gap(floor(log(1.0 - random()) / gap_log)
                    if gap_log is not None else 0)
            if random() < seq_prob:
                pointer += line_bytes
                if pointer >= limit:
                    pointer = base
            else:
                line = getrandbits(bits)
                while line >= lines:
                    line = getrandbits(bits)
                pointer = base + line * line_bytes
            add_address(pointer)
            add_write(random() < write_fraction)
        self._pointer, self._in_off_state = pointer, off
        return gaps, addresses, bytes(writes)

    def records(self, count: int) -> List[TraceRecord]:
        """Generate the next ``count`` trace records."""
        return list(MemoryTrace.from_columns(*self.columns(count)))

    def record(self) -> TraceRecord:
        """Generate the next trace record."""
        return self.records(1)[0]

    def trace(self, num_accesses: int, name: str = "synthetic") -> MemoryTrace:
        """Generate a complete trace of ``num_accesses`` memory ops."""
        if num_accesses <= 0:
            raise ConfigurationError("num_accesses must be positive")
        return MemoryTrace.from_columns(*self.columns(num_accesses), name=name)
