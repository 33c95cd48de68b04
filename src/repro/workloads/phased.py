"""Phase-structured workloads.

Real programs move through phases — gcc parses then optimizes, a web
server alternates idle and burst periods — and the paper leans on this
twice: phases are what a bus observer infers (Figure 4's key leak is a
phase pattern), and the online GA "reconfigures the request/response
hardware bins after a fixed amount of time or after a program phase
change" (section IV-C).

:class:`PhasedTraceGenerator` concatenates segments, each drawn from
its own :class:`~repro.workloads.synthetic.TraceParameters`, producing
traces whose memory intensity shifts at known boundaries — ground
truth for the phase detector in :mod:`repro.ga.phase`.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.common.errors import ConfigurationError
from repro.common.rng import DeterministicRng
from repro.cpu.trace import MemoryTrace
from repro.workloads.synthetic import SyntheticTraceGenerator, TraceParameters


@dataclass(frozen=True)
class Phase:
    """One program phase: generator parameters plus its length."""

    params: TraceParameters
    accesses: int

    def __post_init__(self) -> None:
        if self.accesses <= 0:
            raise ConfigurationError("phase must contain accesses")


class PhasedTraceGenerator:
    """Concatenate per-phase synthetic segments into one trace."""

    def __init__(self, phases: Sequence[Phase], rng: DeterministicRng) -> None:
        if not phases:
            raise ConfigurationError("at least one phase is required")
        self.phases = list(phases)
        self._rng = rng

    def trace(self, name: str = "phased") -> MemoryTrace:
        gaps, addresses, writes = array("q"), array("q"), b""
        for index, phase in enumerate(self.phases):
            generator = SyntheticTraceGenerator(
                phase.params, self._rng.fork(index)
            )
            phase_gaps, phase_addresses, phase_writes = generator.columns(
                phase.accesses
            )
            gaps += phase_gaps
            addresses += phase_addresses
            writes += phase_writes
        return MemoryTrace.from_columns(gaps, addresses, writes, name=name)

    def boundaries(self) -> List[int]:
        """Record indices at which a new phase starts (excluding 0)."""
        out, total = [], 0
        for phase in self.phases[:-1]:
            total += phase.accesses
            out.append(total)
        return out


def two_phase_trace(
    quiet_gap: float = 300.0,
    busy_gap: float = 30.0,
    accesses_per_phase: int = 1500,
    repeats: int = 2,
    seed: int = 7,
    working_set_bytes: int = 8 * 1024 * 1024,
    base_address: int = 0,
) -> Tuple[MemoryTrace, List[int]]:
    """A quiet/busy alternation — the classic phase benchmark.

    Returns the trace and the ground-truth phase boundaries (record
    indices).
    """
    quiet = TraceParameters(
        gap_mean=quiet_gap, working_set_bytes=working_set_bytes,
        base_address=base_address, p_enter_off=0.0,
    )
    busy = TraceParameters(
        gap_mean=busy_gap, working_set_bytes=working_set_bytes,
        base_address=base_address, p_enter_off=0.0,
    )
    phases = []
    for _ in range(repeats):
        phases.append(Phase(quiet, accesses_per_phase))
        phases.append(Phase(busy, accesses_per_phase))
    generator = PhasedTraceGenerator(phases, DeterministicRng(seed))
    return generator.trace(name="two-phase"), generator.boundaries()
