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

from typing import Any, Callable, Dict, List

from repro.common.errors import ConfigurationError
from repro.core.bins import BinConfiguration
from repro.resilience.faults import TrafficBurst
from repro.resilience.runtime import ResilienceConfig
from repro.sim.columnar import DEFAULT_ENGINE

#: The benchmark staircase distribution the CLI experiments use.
_STAIRCASE = (10, 9, 8, 7, 6, 5, 4, 3, 2, 1)


def _shaped_system(seed: int, resilience: ResilienceConfig):
    """A two-core system (shaped benchmark + unshaped co-runner) with
    tracing and the live shaping monitor attached."""
    from repro.sim.system import (
        RequestShapingPlan,
        ResponseShapingPlan,
        SystemBuilder,
    )
    from repro.workloads import make_trace

    config = BinConfiguration(_STAIRCASE)
    builder = SystemBuilder(seed=seed)
    builder.add_core(
        make_trace("gcc", 300, seed=seed),
        request_shaping=RequestShapingPlan(config),
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


def scenario_flood(
    cycles: int = 60_000, engine: str = DEFAULT_ENGINE
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


SCENARIOS: Dict[str, Callable[..., Dict[str, Any]]] = {
    "flood": scenario_flood,
}


def scenario_names() -> List[str]:
    return sorted(SCENARIOS)


def run_scenario(
    name: str,
    cycles: int = 0,
    engine: str = DEFAULT_ENGINE,
) -> Dict[str, Any]:
    """Run one named scenario; unknown names raise ConfigurationError."""
    try:
        fn = SCENARIOS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown scenario {name!r} (known: {', '.join(scenario_names())})"
        ) from None
    kwargs: Dict[str, Any] = {"engine": engine}
    if cycles > 0:
        kwargs["cycles"] = cycles
    return fn(**kwargs)
