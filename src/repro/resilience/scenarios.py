"""Canned adversity scenarios proving the resilience contract.

Each scenario assembles a small shaped system, injects one class of
adversity, and reports how the run ended.  The contract every scenario
must (and the tests verify) uphold: an injected fault ends in a
**typed error**, or in **completion with its bound held** (a shaping
breach is flagged by the live monitor) — never a silent
shaping-guarantee violation.

Used by ``repro faults --scenario NAME`` and the CI fault-injection
smoke job; the returned dicts are JSON-serialisable so CI can archive
them as artifacts.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, List

from repro.common.errors import (
    ConfigurationError,
    QueueOverflowError,
    TraceFormatError,
    WatchdogError,
)
from repro.core.bins import BinConfiguration
from repro.resilience.faults import (
    EpochBoundaryStress,
    LinkStall,
    QueueSaturation,
    TrafficBurst,
)
from repro.resilience.runtime import ResilienceConfig
from repro.sim.columnar import DEFAULT_ENGINE

#: The benchmark staircase distribution the CLI experiments use.
_STAIRCASE = (10, 9, 8, 7, 6, 5, 4, 3, 2, 1)


def _shaped_system(
    seed: int,
    resilience: ResilienceConfig,
    epoch: bool = False,
):
    """A two-core system (shaped benchmark + unshaped co-runner) with
    tracing and the live shaping monitor attached."""
    from repro.sim.system import (
        EpochShapingPlan,
        RequestShapingPlan,
        ResponseShapingPlan,
        SystemBuilder,
    )
    from repro.workloads import make_trace

    config = BinConfiguration(_STAIRCASE)
    builder = SystemBuilder(seed=seed)
    builder.add_core(
        make_trace("gcc", 300, seed=seed),
        request_shaping=(
            EpochShapingPlan(epoch_cycles=2048) if epoch
            else RequestShapingPlan(config)
        ),
        response_shaping=ResponseShapingPlan(config),
    )
    builder.add_core(make_trace("mcf", 300, seed=seed + 1))
    builder.with_observability(
        trace=True, trace_limit=4096, monitor=True, monitor_interval=1024
    )
    builder.with_resilience(resilience)
    return builder.build()


def _monitor(system):
    return system.observability.monitor


def scenario_livelock(
    cycles: int = 80_000, dump_path: str = "", engine: str = DEFAULT_ENGINE
) -> Dict[str, Any]:
    """A permanent request-link stall: the watchdog must catch it."""
    system = _shaped_system(
        seed=21,
        resilience=ResilienceConfig(
            watchdog_cycles=5_000,
            watchdog_dump_path=dump_path,
            faults=(LinkStall(start_cycle=2_000),),
        ),
    )
    try:
        system.run(cycles, engine=engine)
    except WatchdogError as exc:
        return {
            "scenario": "livelock",
            "outcome": "typed_error",
            "error": type(exc).__name__,
            "message": str(exc),
            "caught_at_cycle": exc.dump.get("cycle"),
            "dump_path": exc.dump_path,
            "dump": exc.dump,
        }
    return {
        "scenario": "livelock",
        "outcome": "silent_failure",
        "message": "seeded livelock ran to completion without tripping "
        "the watchdog",
    }


def scenario_flood(
    cycles: int = 60_000, dump_path: str = "", engine: str = DEFAULT_ENGINE
) -> Dict[str, Any]:
    """Traffic bursts far above the configured rate: shaping must hold."""
    system = _shaped_system(
        seed=22,
        resilience=ResilienceConfig(
            faults=(
                TrafficBurst(core_id=0, start_cycle=1_000, count=200,
                             per_cycle=4),
                TrafficBurst(core_id=0, start_cycle=20_000, count=200,
                             per_cycle=8),
            ),
        ),
    )
    report = system.run(cycles, stop_when_done=False, engine=engine)
    monitor = _monitor(system)
    injected = system.resilience.injector.injected_bursts
    violations = [
        {"cycle": v.cycle, "core_id": v.core_id, "tvd": v.value}
        for v in monitor.all_violations
    ]
    return {
        "scenario": "flood",
        "outcome": "flagged_violation" if violations else "completed",
        "injected": injected,
        "cycles_run": report.cycles_run,
        "violations": violations,
        "monitor_samples": len(monitor.history),
    }


def scenario_saturate(
    cycles: int = 60_000, dump_path: str = "", engine: str = DEFAULT_ENGINE
) -> Dict[str, Any]:
    """Drive the transaction queue to its bound; the bound must hold."""
    system = _shaped_system(
        seed=23,
        resilience=ResilienceConfig(
            faults=(
                QueueSaturation(core_id=1, start_cycle=500, count=300,
                                per_cycle=8),
            ),
        ),
    )
    peak_depth = 0
    capacity = system.controller.queue.capacity
    try:
        end = system.current_cycle + cycles
        while system.current_cycle < end and not system.all_cores_done():
            system.run(
                min(512, end - system.current_cycle),
                stop_when_done=True,
                engine=engine,
            )
            peak_depth = max(peak_depth, len(system.controller.queue))
    except QueueOverflowError as exc:
        return {
            "scenario": "saturate",
            "outcome": "typed_error",
            "error": type(exc).__name__,
            "message": str(exc),
            "capacity": exc.capacity,
            "depth": exc.depth,
        }
    return {
        "scenario": "saturate",
        "outcome": "completed",
        "injected": system.resilience.injector.injected_saturations,
        "peak_queue_depth": peak_depth,
        "queue_capacity": capacity,
        "bound_held": peak_depth <= capacity,
    }


def scenario_epoch_stress(
    cycles: int = 40_000, dump_path: str = "", engine: str = DEFAULT_ENGINE
) -> Dict[str, Any]:
    """Burst right before epoch boundaries: AIMD feedback under fire."""
    system = _shaped_system(
        seed=25,
        epoch=True,
        resilience=ResilienceConfig(
            faults=(
                EpochBoundaryStress(core_id=0, epochs=6, burst=4, lead=16),
            ),
        ),
    )
    report = system.run(cycles, stop_when_done=False, engine=engine)
    policy = system.request_paths[0].shaper
    return {
        "scenario": "epoch-stress",
        "outcome": "completed",
        "injected": system.resilience.injector.injected_epoch_stress,
        "cycles_run": report.cycles_run,
        "epochs_elapsed": policy.epochs_elapsed,
        "rate_changes": len(policy.rate_history),
        "leakage_bound_bits": policy.leakage_bound_bits(),
    }


def scenario_malformed_trace(
    cycles: int = 0, dump_path: str = "", engine: str = DEFAULT_ENGINE
) -> Dict[str, Any]:
    """A malformed trace file must fail typed, with file/line context."""
    import tempfile

    from repro.cpu.trace_io import load_trace

    with tempfile.NamedTemporaryFile(
        "w", suffix=".trace", delete=False, encoding="utf-8"
    ) as fh:
        fh.write("# repro-trace v1\n")
        fh.write("10 0x1000 R\n")
        fh.write("not-a-number 0x2000 R\n")
        path = fh.name
    try:
        load_trace(path)
    except TraceFormatError as exc:
        return {
            "scenario": "malformed-trace",
            "outcome": "typed_error",
            "error": type(exc).__name__,
            "message": str(exc),
            "source": exc.source,
            "line": exc.line,
        }
    finally:
        os.unlink(path)
    return {
        "scenario": "malformed-trace",
        "outcome": "silent_failure",
        "message": "malformed trace loaded without error",
    }


SCENARIOS: Dict[str, Callable[..., Dict[str, Any]]] = {
    "livelock": scenario_livelock,
    "flood": scenario_flood,
    "saturate": scenario_saturate,
    "epoch-stress": scenario_epoch_stress,
    "malformed-trace": scenario_malformed_trace,
}


def scenario_names() -> List[str]:
    return sorted(SCENARIOS)


def run_scenario(
    name: str,
    cycles: int = 0,
    dump_path: str = "",
    engine: str = DEFAULT_ENGINE,
) -> Dict[str, Any]:
    """Run one named scenario; unknown names raise ConfigurationError."""
    try:
        fn = SCENARIOS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown scenario {name!r} (known: {', '.join(scenario_names())})"
        ) from None
    kwargs: Dict[str, Any] = {"dump_path": dump_path, "engine": engine}
    if cycles > 0:
        kwargs["cycles"] = cycles
    return fn(**kwargs)
