"""Metric tables, and the arithmetic from child documents to values.

``BENCHMARK.json`` at the repository root repeats ``END_TO_END`` and
``PER_LAYER`` (name, unit, direction, bound); the harness test checks
that the two agree.  ``moves`` says which end-to-end metric a per-layer
metric should move, and on which workload — written down before any
optimisation is measured.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from tracing import summarize


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: End to end: the share of the parent's median by which the metric
    #: may worsen before a change counts as a regression.
    bound: Optional[float] = None
    #: Per layer: does the value repeat exactly from run to run?
    exact: bool = False
    moves: str = ""


END_TO_END = (
    Metric("wall_s", "s", "lower", bound=0.25),
    Metric("sim_cycles_per_s", "1/s", "higher", bound=0.25),
    Metric("setup_s", "s", "lower", bound=0.25),
    Metric("peak_rss_mb", "MB", "lower", bound=0.10),
)

# ``failed_share`` (failed operations and checks / attempted) is in
# every document and judged by ``compare`` (any increase is a
# regression), but is not listed here or in BENCHMARK.json: it is 0 on
# a healthy run, and the driver reads it as ``failed``/``attempted``.

#: Layers reachable from ``System.run``, which is what the profile pass
#: profiles.
PROFILE_LAYERS = (
    "sim", "cpu", "cache", "core", "noc", "memctrl", "dram", "obs",
    "resilience", "common", "workloads", "python",
)
STATION_KINDS = (
    "core", "req_path", "req_link", "memctrl", "resp_path", "resp_link",
)

_STEP = "sim_cycles_per_s on mix4_open/mix4_bdc via us_per_stepped_cycle"
_SKIP = "sim_cycles_per_s on idle1_cs via stepped_share and dirty_repolls"
_FIXED = "nothing: modelled statistic, identical under a speed-only change"
_SWEEP = "wall_s on sweep_fig2 only; no change on the other four"

_LAYER_FIRST = {
    "sim": "idle1_cs first", "cpu": "mix4_open first",
    "core": "mix4_bdc only", "memctrl": "mix4_bdc and mix4_open",
    "dram": "mix4_bdc and mix4_open",
}


def _per_layer() -> List[Metric]:
    out: List[Metric] = []
    for layer in PROFILE_LAYERS:
        moves = (
            "its share caps the gain in sim_cycles_per_s; "
            + _LAYER_FIRST.get(layer, "small on every workload")
        )
        out.append(Metric(f"{layer}.self_s", "s", "lower", moves=moves))
        out.append(Metric(f"{layer}.self_share", "share", "lower", moves=moves))
        out.append(Metric(f"{layer}.calls", "count", "lower", exact=True,
                          moves=moves))
    out += [
        Metric("sim.stepped_cycles", "cycles", "lower", exact=True, moves=_STEP),
        Metric("sim.skipped_cycles", "cycles", "higher", exact=True, moves=_SKIP),
        Metric("sim.stepped_share", "share", "lower", exact=True, moves=_SKIP),
        Metric("sim.skip_spans", "count", "lower", exact=True, moves=_SKIP),
        Metric("sim.horizon_refreshes", "count", "lower", exact=True, moves=_SKIP),
        Metric("sim.dirty_repolls", "count", "lower", exact=True, moves=_SKIP),
        Metric("sim.full_tick_fallbacks", "count", "lower", exact=True,
               moves=_STEP),
    ]
    out += [
        Metric(f"sim.ticks.{kind}", "count", "lower", exact=True, moves=_STEP)
        for kind in STATION_KINDS
    ]
    out += [
        Metric(f"sim.skips.{kind}", "count", "higher", exact=True, moves=_SKIP)
        for kind in STATION_KINDS
    ]
    out.append(Metric("sim.us_per_stepped_cycle", "us", "lower", moves=_STEP))
    out += [
        Metric("cpu.retired_instructions", "count", "higher", exact=True,
               moves=_FIXED),
        Metric("cpu.ipc_mean", "ipc", "higher", exact=True, moves=_FIXED),
        Metric("cpu.memory_stall_share", "share", "lower", exact=True,
               moves=_FIXED),
        Metric("cache.llc_accesses", "count", "lower", exact=True, moves=_FIXED),
        Metric("cache.llc_misses", "count", "lower", exact=True, moves=_FIXED),
        Metric("core.demand_requests", "count", "higher", exact=True,
               moves=_FIXED),
        Metric("core.fake_requests", "count", "lower", exact=True, moves=_FIXED),
        Metric("core.fake_responses", "count", "lower", exact=True,
               moves=_FIXED),
        Metric("noc.request_grants", "count", "higher", exact=True,
               moves=_FIXED),
        Metric("noc.response_grants", "count", "higher", exact=True,
               moves=_FIXED),
        Metric("memctrl.mean_latency_cycles", "cycles", "lower", exact=True,
               moves=_FIXED),
        Metric("memctrl.p95_latency_cycles", "cycles", "lower", exact=True,
               moves=_FIXED),
        Metric("dram.row_hits", "count", "higher", exact=True, moves=_FIXED),
        Metric("dram.row_misses", "count", "lower", exact=True, moves=_FIXED),
        Metric("dram.row_hit_rate", "share", "higher", exact=True,
               moves=_FIXED),
        Metric("dram.refreshes", "count", "lower", exact=True, moves=_FIXED),
    ]
    build = ("setup_s on the sim workloads; wall_s on sweep_fig2/ga_gen, "
             "which build inside the timed operation")
    out += [
        Metric("workloads.make_trace_s", "s", "lower", moves=build),
        Metric("workloads.make_trace_calls", "count", "lower", exact=True,
               moves=build),
        Metric("sim.build_s", "s", "lower", moves=build),
        Metric("sim.build_calls", "count", "lower", exact=True, moves=build),
        Metric("sim.run_s", "s", "lower",
               moves="wall_s on every workload"),
        Metric("sim.run_calls", "count", "lower", exact=True,
               moves="wall_s on ga_gen: per-call engine set-up"),
        Metric("sim.cycles_per_run_call", "cycles", "higher", exact=True,
               moves="wall_s on ga_gen: per-call engine set-up"),
        Metric("security.mi_s", "s", "lower", moves="wall_s on sweep_fig2"),
        Metric("security.detect_s", "s", "lower", moves="wall_s on sweep_fig2"),
        Metric("security.calls", "count", "lower", exact=True,
               moves="wall_s on sweep_fig2"),
        Metric("ga.tune_s", "s", "lower", moves="wall_s on ga_gen"),
        Metric("ga.evaluations", "count", "lower", exact=True,
               moves="wall_s on ga_gen"),
        Metric("analysis.self_s", "s", "lower",
               moves="wall_s on ga_gen and sweep_fig2"),
        Metric("common.digest_s", "s", "lower",
               moves="wall_s on sweep_fig2 (cache keys, run digests)"),
        Metric("cli.import_s", "s", "lower", moves="setup_s on every workload"),
        Metric("parallel.map_s", "s", "lower", moves=_SWEEP),
        Metric("parallel.self_s", "s", "lower", moves=_SWEEP),
        Metric("parallel.speedup_j2", "x", "higher", moves=_SWEEP),
        Metric("parallel.efficiency_j2", "share", "higher", moves=_SWEEP),
        Metric("parallel.pool_spawn_s", "s", "lower", moves=_SWEEP),
        Metric("parallel.cache_replay_s", "s", "lower", moves=_SWEEP),
        Metric("parallel.cache_hit_ratio", "share", "higher", exact=True,
               moves=_SWEEP),
        Metric("parallel.tasks_run", "count", "lower", exact=True, moves=_SWEEP),
        Metric("parallel.retries", "count", "lower", exact=True, moves=_SWEEP),
        Metric("trace.overhead_ratio", "x", "lower",
               moves="nothing end to end: cost of the spans pass itself"),
        Metric("trace.profile_overhead_ratio", "x", "lower",
               moves="nothing end to end: cost of the profile pass itself"),
    ]
    return out


PER_LAYER = tuple(_per_layer())


def end_to_end_values(children: List[Dict[str, Any]],
                      cycles: Optional[int]) -> Dict[str, Dict[str, Any]]:
    """Medians (with min, max, n) over every timed operation and every
    child's set-up.  ``cycles`` is the exact simulated-cycle count of
    one operation."""
    walls = [w for child in children for w in child.get("walls", [])]
    setups = [c["setup"]["total_s"] for c in children if "setup" in c]
    rss = [c["peak_rss_mb"] for c in children if "peak_rss_mb" in c]
    samples = {
        "wall_s": walls,
        "sim_cycles_per_s": [cycles / w for w in walls] if cycles else [],
        "setup_s": setups,
        "peak_rss_mb": rss,
    }
    return {
        metric.name: dict(summarize(samples[metric.name]), unit=metric.unit)
        for metric in END_TO_END
        if samples[metric.name]
    }


def per_layer_values(children: List[Dict[str, Any]], wall_s: float
                     ) -> Dict[str, float]:
    """Every ``PER_LAYER`` metric from the final child's traced passes.

    ``wall_s`` is the timed (untraced) median the ratios are taken
    against.  A metric whose layer did no work on this workload is 0.
    """
    final = children[-1]
    spans, profile = final["spans"], final["profile"]
    values = {m.name: 0 if m.unit == "count" else 0.0 for m in PER_LAYER}

    profiled_s = sum(row["self_s"] for row in profile["layers"].values())
    for layer in PROFILE_LAYERS:
        row = profile["layers"].get(layer)
        if row:
            values[f"{layer}.self_s"] = row["self_s"]
            values[f"{layer}.self_share"] = row["self_s"] / profiled_s
            values[f"{layer}.calls"] = row["calls"]

    engine = spans["engine"]
    stepped, skipped = engine["stepped_cycles"], engine["skipped_cycles"]
    values.update({
        "sim.stepped_cycles": stepped,
        "sim.skipped_cycles": skipped,
        "sim.stepped_share": stepped / max(1, stepped + skipped),
        "sim.skip_spans": engine["skip_spans"],
        "sim.horizon_refreshes": engine["horizon_refreshes"],
        "sim.dirty_repolls": engine["dirty_repolls"],
        "sim.full_tick_fallbacks": engine["full_tick_fallbacks"],
        "sim.us_per_stepped_cycle": wall_s * 1e6 / max(1, stepped),
    })
    for kind in STATION_KINDS:
        values[f"sim.ticks.{kind}"] = engine["ticks"].get(kind, 0)
        values[f"sim.skips.{kind}"] = engine["skips"].get(kind, 0)

    values.update(spans["modelled"])

    def span(name: str, field: str) -> float:
        return spans["rollup"].get(name, {}).get(field, 0)

    run_calls = span("sim.run", "calls")
    values.update({
        "workloads.make_trace_s": span("workloads.make_trace", "total_s"),
        "workloads.make_trace_calls": span("workloads.make_trace", "calls"),
        "sim.build_s": span("sim.build", "total_s"),
        "sim.build_calls": span("sim.build", "calls"),
        "sim.run_s": span("sim.run", "total_s"),
        "sim.run_calls": run_calls,
        "sim.cycles_per_run_call": spans["cycles"] / max(1, run_calls),
        "security.mi_s": span("security.mi", "total_s"),
        "security.detect_s": span("security.detect", "total_s"),
        "security.calls": (
            span("security.mi", "calls") + span("security.detect", "calls")
        ),
        "ga.tune_s": span("ga.tune", "total_s"),
        "ga.evaluations": spans["ga_evaluations"],
        "analysis.self_s": (
            span("analysis.tradeoff_sweep", "self_s")
            + span("analysis.bdc_comparison", "self_s")
        ),
        "common.digest_s": span("common.digest", "total_s"),
        "cli.import_s": summarize(
            c["setup"]["import_s"] for c in children if "setup" in c
        )["value"],
        "parallel.map_s": span("parallel.map", "total_s"),
        "parallel.self_s": (
            span("parallel.map", "self_s")
            + span("parallel.cache_get", "self_s")
            + span("parallel.cache_put", "self_s")
        ),
        "parallel.tasks_run": spans["tasks_run"],
        "parallel.retries": spans["retries"],
        "trace.overhead_ratio": spans["op_wall_s"] / wall_s,
        "trace.profile_overhead_ratio": (
            (profile["wall_s"] / max(1, profile["cycles"]))
            / (wall_s / max(1, spans["cycles"]))
        ),
    })
    parallel = final.get("parallel")
    if parallel:
        # Base: the spans pass ran the same operation at jobs=1 (with
        # span overhead); the timed median ran it at jobs=2.
        speedup = spans["op_wall_s"] / wall_s
        values.update({
            "parallel.speedup_j2": speedup,
            "parallel.efficiency_j2": speedup / 2,
            "parallel.pool_spawn_s": parallel["pool_spawn_s"],
            "parallel.cache_replay_s": parallel["cache_replay_s"],
            "parallel.cache_hit_ratio": parallel["cache_hit_ratio"],
        })
    return values


def sim_fingerprint(digest: str, modelled: Dict[str, float]) -> str:
    """Hash of an operation's output digest and the exact modelled
    statistics: a simulator-only change must leave it identical."""
    blob = json.dumps({"digest": digest, "modelled": modelled},
                      sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]
