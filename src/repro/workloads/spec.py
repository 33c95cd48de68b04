"""SPEC-2006-like benchmark profiles (documented substitution).

The paper evaluates SPECInt 2006 plus the Apache web server.  Real
traces require proprietary suites and a GEM5 toolchain, so each name
maps to a :class:`BenchmarkProfile` — synthetic-generator parameters
chosen from published characterizations of the suite:

* **Intensity ordering** (approximate LLC-MPKI from the SPEC2006
  characterization literature): mcf ≫ libquantum > omnetpp > astar >
  apache > bzip2 > gcc > hmmer > gobmk > sjeng ≈ h264ref.  The paper's
  experiments lean on exactly this contrast (mcf as the intense
  co-runner, astar as the moderate one).
* **Access style**: libquantum streams sequentially (row-buffer
  friendly); mcf and omnetpp pointer-chase (row-buffer hostile); the
  rest sit between.
* **Burstiness**: apache serves requests in bursts (strong ON/OFF);
  gcc alternates between parse and optimize phases.

These preserve the *relative* behaviours the evaluation's conclusions
rest on; absolute cycle counts are not comparable to the paper's
testbed (see DESIGN.md section 2).
"""

from __future__ import annotations

import dataclasses
import functools
import zlib

from repro.common.errors import ConfigurationError
from repro.common.rng import DeterministicRng
from repro.cpu.trace import MemoryTrace
from repro.workloads.synthetic import SyntheticTraceGenerator, TraceParameters

KB = 1024
MB = 1024 * 1024


@dataclasses.dataclass(frozen=True)
class BenchmarkProfile:
    """A named workload: generator parameters plus provenance notes."""

    name: str
    params: TraceParameters
    notes: str


_PROFILES = {
    "astar": BenchmarkProfile(
        name="astar",
        params=TraceParameters(
            gap_mean=100.0, seq_prob=0.35, working_set_bytes=8 * MB,
            write_fraction=0.25, p_enter_off=0.02, p_exit_off=0.08,
            off_gap_multiplier=6.0,
        ),
        notes="path-finding: moderate intensity, mixed locality; the "
              "paper's 'application under protection' with lower traffic",
    ),
    "mcf": BenchmarkProfile(
        name="mcf",
        params=TraceParameters(
            gap_mean=36.0, seq_prob=0.10, working_set_bytes=64 * MB,
            write_fraction=0.30, p_enter_off=0.005, p_exit_off=0.2,
            off_gap_multiplier=3.0,
        ),
        notes="network simplex: the most memory-intensive SPECint, "
              "pointer chasing, huge working set; gap calibrated so a "
              "3-copy mix heavily loads but does not hard-saturate one "
              "DDR3 channel, as in the paper's testbed",
    ),
    "bzip": BenchmarkProfile(
        name="bzip",
        params=TraceParameters(
            gap_mean=160.0, seq_prob=0.60, working_set_bytes=4 * MB,
            write_fraction=0.35, p_enter_off=0.03, p_exit_off=0.10,
            off_gap_multiplier=5.0,
        ),
        notes="compression: block-structured streaming with sort jumps",
    ),
    "gcc": BenchmarkProfile(
        name="gcc",
        params=TraceParameters(
            gap_mean=200.0, seq_prob=0.50, working_set_bytes=2 * MB,
            write_fraction=0.30, p_enter_off=0.05, p_exit_off=0.05,
            off_gap_multiplier=10.0,
        ),
        notes="compiler: strongly phased (parse vs optimize) traffic",
    ),
    "h264ref": BenchmarkProfile(
        name="h264ref",
        params=TraceParameters(
            gap_mean=650.0, seq_prob=0.80, working_set_bytes=1 * MB,
            write_fraction=0.20, p_enter_off=0.02, p_exit_off=0.15,
            off_gap_multiplier=4.0,
        ),
        notes="video encoder: compute-bound, high locality on frames",
    ),
    "gobmk": BenchmarkProfile(
        name="gobmk",
        params=TraceParameters(
            gap_mean=480.0, seq_prob=0.40, working_set_bytes=1 * MB,
            write_fraction=0.25, p_enter_off=0.03, p_exit_off=0.10,
            off_gap_multiplier=5.0,
        ),
        notes="Go engine: branchy compute with small board state",
    ),
    "omnetpp": BenchmarkProfile(
        name="omnetpp",
        params=TraceParameters(
            gap_mean=48.0, seq_prob=0.20, working_set_bytes=16 * MB,
            write_fraction=0.35, p_enter_off=0.01, p_exit_off=0.2,
            off_gap_multiplier=3.0,
        ),
        notes="discrete-event sim: intense, heap-pointer chasing",
    ),
    "hmmer": BenchmarkProfile(
        name="hmmer",
        params=TraceParameters(
            gap_mean=320.0, seq_prob=0.70, working_set_bytes=512 * KB,
            write_fraction=0.30, p_enter_off=0.02, p_exit_off=0.15,
            off_gap_multiplier=4.0,
        ),
        notes="profile HMM search: regular table sweeps, mostly cached",
    ),
    "libquantum": BenchmarkProfile(
        name="libquantum",
        params=TraceParameters(
            gap_mean=38.0, seq_prob=0.95, working_set_bytes=32 * MB,
            write_fraction=0.40, p_enter_off=0.005, p_exit_off=0.3,
            off_gap_multiplier=2.0,
        ),
        notes="quantum sim: pure streaming over a large vector — the "
              "row-buffer-friendliest workload in the suite",
    ),
    "sjeng": BenchmarkProfile(
        name="sjeng",
        params=TraceParameters(
            gap_mean=650.0, seq_prob=0.30, working_set_bytes=512 * KB,
            write_fraction=0.25, p_enter_off=0.04, p_exit_off=0.10,
            off_gap_multiplier=6.0,
        ),
        notes="chess engine: compute-bound, hash-table scatter",
    ),
    "apache": BenchmarkProfile(
        name="apache",
        params=TraceParameters(
            gap_mean=120.0, seq_prob=0.50, working_set_bytes=8 * MB,
            write_fraction=0.30, p_enter_off=0.10, p_exit_off=0.08,
            off_gap_multiplier=12.0,
        ),
        notes="web server: strongly bursty request handling (ON/OFF)",
    ),
}

#: The paper's 11 evaluated applications, in figure order.
BENCHMARK_NAMES = (
    "astar", "bzip", "gcc", "h264ref", "gobmk", "libquantum",
    "sjeng", "mcf", "hmmer", "omnetpp", "apache",
)

#: Short display aliases used by some paper figures (libqt = libquantum).
_ALIASES = {"libqt": "libquantum", "bzip2": "bzip"}


def benchmark_profile(name: str) -> BenchmarkProfile:
    """Look up a benchmark profile by name (aliases accepted)."""
    canonical = _ALIASES.get(name, name)
    try:
        return _PROFILES[canonical]
    except KeyError:
        raise ConfigurationError(
            f"unknown benchmark {name!r}; known: {sorted(_PROFILES)}"
        ) from None


@functools.lru_cache(maxsize=32)
def make_trace(
    name: str,
    num_accesses: int = 4000,
    seed: int = 1,
    base_address: int = 0,
) -> MemoryTrace:
    """Generate a reproducible trace for a named benchmark.

    ``base_address`` separates co-running instances' address spaces so
    they do not accidentally share cache lines (each VM has its own
    physical allocation in the paper's setting).

    Traces are memoised per process on all four arguments: a
    :class:`MemoryTrace` is immutable, so a sweep's base run and its
    rungs can share one generation of the same program's trace.
    """
    if num_accesses <= 0:
        raise ConfigurationError(
            f"num_accesses must be positive: {num_accesses}"
        )
    if base_address < 0:
        raise ConfigurationError(
            f"base_address must be non-negative: {base_address:#x}"
        )
    profile = benchmark_profile(name)
    params = profile.params
    if base_address:
        params = dataclasses.replace(params, base_address=base_address)
    # zlib.crc32 is stable across processes (unlike built-in hash()).
    rng = DeterministicRng(seed).fork(zlib.crc32(profile.name.encode()))
    generator = SyntheticTraceGenerator(params, rng)
    return generator.trace(num_accesses, name=profile.name)
