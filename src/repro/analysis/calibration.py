"""Workload-calibration validation.

The reproduction substitutes synthetic generators for the paper's
SPEC/Apache traces (DESIGN.md §2); this module measures what the
substitution actually produces — per-benchmark memory intensity,
row-buffer behaviour, bandwidth, burstiness — so the preserved
properties the substitution claims (intensity ordering, locality
styles, burstiness contrast) can be asserted rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.analysis.experiments import ExperimentDefaults, run_mix_system
from repro.sim.bandwidth import bandwidth_series, burstiness_index
from repro.workloads.spec import BENCHMARK_NAMES


@dataclass(frozen=True)
class WorkloadCalibration:
    """Measured characteristics of one benchmark running alone."""

    name: str
    ipc: float
    llc_mpki: float
    requests_per_kilocycle: float
    row_hit_rate: float
    mean_latency: float
    burstiness: float


def calibrate_benchmark(
    name: str,
    defaults: ExperimentDefaults = ExperimentDefaults(),
    window_cycles: int = 1024,
) -> WorkloadCalibration:
    """Run one benchmark alone and summarize its memory behaviour."""
    system, report = run_mix_system([name], defaults)
    stats = report.core(0)
    insts = max(1, stats.retired_instructions)
    series = bandwidth_series(
        system.request_link.grant_trace, window_cycles, report.cycles_run
    )
    return WorkloadCalibration(
        name=name,
        ipc=stats.ipc,
        llc_mpki=1000.0 * stats.llc_misses / insts,
        requests_per_kilocycle=(
            1000.0 * stats.demand_requests / max(1, stats.cycles)
        ),
        row_hit_rate=report.row_hit_rate(),
        mean_latency=stats.mean_memory_latency(),
        burstiness=burstiness_index(series),
    )


def calibrate_suite(
    defaults: ExperimentDefaults = ExperimentDefaults(),
    benchmarks: Optional[Sequence[str]] = None,
) -> Dict[str, WorkloadCalibration]:
    """Calibrate every benchmark in the suite (or a subset)."""
    return {
        name: calibrate_benchmark(name, defaults)
        for name in (benchmarks or BENCHMARK_NAMES)
    }


#: The qualitative properties the substitution must preserve, with the
#: published characterizations they come from (see workloads/spec.py).
EXPECTED_INTENSITY_ORDER = ("mcf", "astar", "sjeng")
EXPECTED_STREAMING = "libquantum"
EXPECTED_POINTER_CHASING = "mcf"
EXPECTED_BURSTY = ("apache", "gcc")
EXPECTED_STEADY = ("libquantum", "mcf", "omnetpp")


def check_substitution_claims(
    calibrations: Dict[str, WorkloadCalibration],
) -> Dict[str, bool]:
    """Evaluate each DESIGN.md substitution claim against measurements.

    Returns claim-name → held?, so a harness can both report and
    assert them.
    """
    def rate(name: str) -> float:
        return calibrations[name].requests_per_kilocycle

    claims = {}
    hi, mid, lo = EXPECTED_INTENSITY_ORDER
    claims["intensity_ordering (mcf > astar > sjeng)"] = (
        rate(hi) > rate(mid) > rate(lo)
    )
    claims["libquantum streams (highest row-hit rate)"] = (
        calibrations[EXPECTED_STREAMING].row_hit_rate
        == max(c.row_hit_rate for c in calibrations.values())
    )
    claims["mcf pointer-chases (row-hit below suite median)"] = (
        calibrations[EXPECTED_POINTER_CHASING].row_hit_rate
        < sorted(c.row_hit_rate for c in calibrations.values())[
            len(calibrations) // 2
        ]
    )
    claims["bursty profiles (apache, gcc) beat steady ones"] = min(
        calibrations[name].burstiness for name in EXPECTED_BURSTY
    ) > 2 * max(
        calibrations[name].burstiness for name in EXPECTED_STEADY
    )
    return claims
