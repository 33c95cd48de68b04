"""Worker task functions for the parallel sweep executor, and the
sweep-point codec they share.

Each task here is the unit one lane of the executor runs: a
module-level function of one plain-JSON payload dict, returning a
plain-JSON result dict.  Keeping both sides JSON-typed gives three
properties at once:

* the payload digests canonically for the result cache
  (:func:`repro.parallel.cache.config_digest`);
* the result round-trips through the cache without loss, so a cache
  hit is byte-equivalent to a fresh run;
* the sequential (``jobs=1``) and forked paths run the *same code* on
  the *same values* — jobs-invariance holds by construction, and the
  differential tests only have to confirm it survives the process
  boundary.

A payload is one sweep point: the machine
(:func:`repro.analysis.experiments.build_mix`'s arguments, written out
in full by :func:`encode_point`) plus the measurement fields of the
task that scores it.  :func:`decode_point` is the only reader — it
rejects a missing or unknown field with a typed error before anything
is simulated — and :func:`run_point` turns a payload back into the
built-and-run machine.

Every simulation task also returns the full
:func:`~repro.sim.stats.report_digest` of its run, so sweep outputs
can be compared point-by-point across ``--jobs`` values from the CLI.

:mod:`repro.analysis.experiments` resolves this module lazily, so the
simulator stack is imported here at module level; the lanes a map
forks from the calling process inherit it.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any, Dict, NamedTuple, Optional, Sequence, Tuple

from repro.analysis.experiments import (
    ExperimentDefaults,
    _avg_slowdown,
    run_mix_system,
)
from repro.common.errors import ConfigurationError
from repro.core.bins import BinConfiguration, BinSpec
from repro.obs.export import serialize_registry
from repro.obs.metrics import MetricsRegistry
from repro.security.detect import detect_report
from repro.sim.stats import SystemReport, report_digest
from repro.sim.system import RequestShapingPlan, System

#: Bucket edges (cycles) of the per-point run-length histogram in the
#: shard registry documents.
_POINT_CYCLE_EDGES = (
    1_000, 5_000, 10_000, 50_000, 100_000, 500_000, 1_000_000,
)


def _registry_doc(report: SystemReport) -> Dict[str, Any]:
    """The worker's serialized registry snapshot for one task.

    Every simulation task attaches this under ``"obs_registry"``; the
    executor strips it from the visible result and folds it into the
    cluster-level registry (``SweepExecutor.merged_registry``), so
    ``repro sweep --metrics-out`` exports all shards as one system.
    Only jobs-invariant, report-derived quantities appear — the merged
    exposition must be byte-identical across ``--jobs``.
    """
    registry = MetricsRegistry()
    points = registry.counter("sweep.points")
    cycles = registry.counter("sweep.cycles")
    retired = registry.counter("sweep.retired_instructions")
    demand = registry.counter("sweep.demand_requests")
    fake = registry.counter("sweep.fake_requests")
    row_hits = registry.counter("sweep.row_hits")
    row_misses = registry.counter("sweep.row_misses")
    point_cycles = registry.histogram(
        "sweep.point_cycles", _POINT_CYCLE_EDGES
    )
    points.inc()
    cycles.inc(report.cycles_run)
    row_hits.inc(report.row_hits)
    row_misses.inc(report.row_misses)
    point_cycles.record(report.cycles_run)
    for core in report.cores:
        retired.inc(core.retired_instructions)
        demand.inc(core.demand_requests)
        fake.inc(core.fake_requests_sent + core.fake_responses_sent)
    return serialize_registry(registry)


# ---------------------------------------------------------------------------
# the sweep-point codec
# ---------------------------------------------------------------------------

#: Machine fields that are :func:`build_mix` keyword arguments verbatim.
_RECIPE_FIELDS = (
    "slots", "scheduler", "scheduler_kwargs", "bank_partitioning",
    "noc_latency",
)
#: The machine half of every payload, always written out in full so
#: equal machines digest equally.
_MACHINE_FIELDS = (
    "names", "accesses", "cycles", "seed", "spec_edges", "spec_period",
    "request_plans", *_RECIPE_FIELDS,
)


def _plan_doc(credits: Sequence[int], generate_fake: bool = True) -> Dict:
    return {
        "credits": [int(c) for c in credits],
        "generate_fake": bool(generate_fake),
    }


def encode_point(
    names: Sequence[str],
    defaults: ExperimentDefaults,
    *,
    spec: Optional[BinSpec] = None,
    slots: Optional[Sequence[int]] = None,
    request_plans: Optional[Dict[int, RequestShapingPlan]] = None,
    scheduler: str = "frfcfs",
    scheduler_kwargs: Optional[Dict[str, Any]] = None,
    bank_partitioning: bool = False,
    noc_latency: Optional[int] = None,
    **measure: Any,
) -> Dict[str, Any]:
    """One sweep point as a plain-JSON payload.

    The machine arguments are :func:`build_mix`'s; ``spec`` (default
    ``defaults.spec``) is the bin spec of every request plan and of the
    task's scoring.  ``measure`` carries the task's own fields (label,
    window, slowdown denominators, ...).  Plans travel as credit lists
    plus ``generate_fake``; a plan setting any other field, or one
    that is not a bin plan, cannot be encoded.
    """
    spec = defaults.spec if spec is None else spec
    plans = {}
    for core, plan in sorted((request_plans or {}).items()):
        if not isinstance(plan, RequestShapingPlan):
            raise ConfigurationError(
                f"request plan for core {core} is a "
                f"{type(plan).__name__}; the point codec carries bin "
                "plans only"
            )
        if plan != RequestShapingPlan(plan.config, spec, plan.generate_fake):
            raise ConfigurationError(
                f"request plan for core {core} sets a field the point "
                "codec does not carry (spec, strict_binning, jitter)"
            )
        plans[str(core)] = _plan_doc(plan.config.credits, plan.generate_fake)
    payload: Dict[str, Any] = {
        "names": list(names),
        "accesses": defaults.accesses,
        "cycles": defaults.cycles,
        "seed": defaults.seed,
        "spec_edges": list(spec.edges),
        "spec_period": spec.replenish_period,
        "request_plans": plans,
        "slots": list(range(len(names)) if slots is None else slots),
        "scheduler": scheduler,
        "scheduler_kwargs": dict(scheduler_kwargs or {}),
        "bank_partitioning": bool(bank_partitioning),
        "noc_latency": noc_latency,
    }
    shadowed = sorted(set(measure) & set(payload))
    if shadowed:
        raise ConfigurationError(
            f"measurement fields shadow machine fields: {shadowed}"
        )
    return {**payload, **measure}


def decode_point(
    payload: Dict[str, Any],
    required: Sequence[str] = (),
    optional: Sequence[str] = (),
) -> Tuple[ExperimentDefaults, Dict[str, Any]]:
    """Validate a payload; return its run geometry and mix recipe.

    ``required``/``optional`` name the calling task's measurement
    fields; a missing or unknown field is a typed error, raised before
    anything is built.  The recipe is :func:`build_mix`'s keyword
    arguments (``benchmarks`` included); ``defaults.spec`` is the
    payload's spec.
    """
    missing = [f for f in (*_MACHINE_FIELDS, *required) if f not in payload]
    unknown = sorted(
        set(payload) - {*_MACHINE_FIELDS, *required, *optional}
    )
    if missing or unknown:
        raise ConfigurationError(
            f"malformed sweep-point payload: missing fields {missing}, "
            f"unknown fields {unknown}"
        )
    if payload["seed"] is None:
        raise ConfigurationError(
            "malformed sweep-point payload: seed is null"
        )
    spec = BinSpec(tuple(payload["spec_edges"]), int(payload["spec_period"]))
    defaults = ExperimentDefaults(
        int(payload["accesses"]), int(payload["cycles"]),
        int(payload["seed"]), spec
    )
    plans = {
        int(core): RequestShapingPlan(
            BinConfiguration(tuple(doc["credits"])), spec,
            bool(doc["generate_fake"]),
        )
        for core, doc in payload["request_plans"].items()
    }
    return defaults, dict(
        {field: payload[field] for field in _RECIPE_FIELDS},
        benchmarks=payload["names"], request_plans=plans,
    )


class PointRun(NamedTuple):
    """A decoded payload's built-and-run machine (``defaults`` carries
    the payload's spec and seed)."""

    system: System
    report: SystemReport
    defaults: ExperimentDefaults
    request_plans: Dict[int, RequestShapingPlan]


def run_point(
    payload: Dict[str, Any],
    required: Sequence[str] = (),
    optional: Sequence[str] = (),
    shaped_cores: Sequence[int] = (),
) -> PointRun:
    """Decode a payload, then build and run its machine.

    ``shaped_cores`` are the cores whose request plan the task scores
    against; a payload without a plan for one of them is rejected
    before the run.
    """
    defaults, recipe = decode_point(payload, required, optional)
    for core in shaped_cores:
        if core not in recipe["request_plans"]:
            raise ConfigurationError(
                f"malformed sweep-point payload: the task scores core "
                f"{core} but request_plans has no entry for it"
            )
    system, report = run_mix_system(defaults=defaults, **recipe)
    return PointRun(system, report, defaults, recipe["request_plans"])


def _result(run: PointRun, **fields: Any) -> Dict[str, Any]:
    """A task result: its fields plus the run's digest and registry."""
    return {
        **fields,
        "digest": report_digest(run.report),
        "obs_registry": _registry_doc(run.report),
    }


def _zoo(run: PointRun, seed: int, window_cycles: Optional[int],
         core: int = 0):
    """Score ``core``'s shaped request stream against the attacker zoo.

    The target distribution is the core's own request plan.  MI
    windows the whole run, so every task reports the same ``mi`` for
    the same machine.  The report is unlabelled: scores do not depend
    on the label, and the caller names the row.
    """
    stats = run.report.core(core)
    return detect_report(
        label="",
        intrinsic_gaps=stats.request_intrinsic.gaps,
        observed_gaps=stats.request_shaped.gaps,
        spec=run.defaults.spec,
        target_frequencies=run.request_plans[core].config.normalized(),
        seed=int(seed),
        window_cycles=window_cycles,
        run_cycles=run.report.cycles_run,
    )


# ---------------------------------------------------------------------------
# alone runs (sweep stage 0: baselines and intrinsic profiles)
# ---------------------------------------------------------------------------


def alone_base_task(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Run one benchmark alone, unshaped; return its intrinsic profile.

    The result carries everything later stages derive from the base
    run — IPC, cycle count, and the intrinsic request gap sequence —
    so a cached base run reconstructs the sweep's anchors (and the
    Figure 13 slowdown denominators) without re-simulating.
    """
    run = run_point(payload)
    stats = run.report.core(0)
    return _result(
        run,
        ipc=stats.ipc,
        cycles_run=run.report.cycles_run,
        gaps=list(stats.request_intrinsic.gaps),
    )


# ---------------------------------------------------------------------------
# single-program shaped points (the Figure 2 / detect-suite ladder)
# ---------------------------------------------------------------------------


def tradeoff_point_task(payload: Dict[str, Any]) -> Dict[str, Any]:
    """One credit configuration of the config ladder (Figure 2,
    ``repro detect``).

    Runs the benchmark alone under the payload's credit configuration
    and reports IPC plus the full detectability-lab score set — the
    windowed-rate MI between the intrinsic and shaped request streams
    and the zoo's AUC / XCorr / spectral probes against the
    configuration's own target distribution — as the zoo report's
    fields under ``zoo``.  The payload and the report carry no label:
    every rung granted these credits shares this result, and the ladder
    labels its rows.

    A payload with an ``anchor`` field (the base run's intrinsic
    ``gaps``, its ``cycles_run`` and the ``target`` credits) is the
    ladder's no-shaping anchor instead: nothing is simulated, the
    intrinsic stream is scored as the observed one against the target,
    and the result is ``zoo`` alone (the row's IPC and digest are the
    base run's).
    """
    fields = ("window_cycles",), ("detect_seed", "anchor")
    if "anchor" in payload:
        defaults, _ = decode_point(payload, *fields)
        anchor = payload["anchor"]
        zoo = detect_report(
            label="",
            intrinsic_gaps=anchor["gaps"],
            observed_gaps=anchor["gaps"],
            spec=defaults.spec,
            target_frequencies=BinConfiguration(
                tuple(anchor["target"])
            ).normalized(),
            seed=int(payload.get("detect_seed", defaults.seed)),
            window_cycles=int(payload["window_cycles"]),
            run_cycles=int(anchor["cycles_run"]),
        )
        return {"zoo": _unlabelled(zoo)}
    run = run_point(payload, *fields, shaped_cores=(0,))
    zoo = _zoo(
        run, payload.get("detect_seed", run.defaults.seed),
        int(payload["window_cycles"]),
    )
    return _result(run, ipc=run.report.core(0).ipc, zoo=_unlabelled(zoo))


def _unlabelled(report) -> Dict[str, Any]:
    """A zoo report's fields without its label, as a task returns them."""
    zoo = asdict(report)
    del zoo["label"]
    return zoo


# ---------------------------------------------------------------------------
# mix slowdown points (TP / FS sweeps, scalability)
# ---------------------------------------------------------------------------


def mix_slowdown_task(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Run one protected mix; report per-core IPCs and avg slowdown.

    The payload's machine is the program mix under its baseline
    scheduler and optional per-core Camouflage shapers;
    ``alone_ipcs`` provides the slowdown denominators.
    ``slip_fraction`` is included when the scheduler exposes one (the
    FS leak proxy).  Optional ``payload["detect"]`` (``{"core": K,
    "seed": S}``) scores core K's request streams against the zoo;
    requires a request plan for that core (its credits are the target
    distribution).
    """
    detect_cfg = payload.get("detect")
    detect_core = int(detect_cfg["core"]) if detect_cfg else None
    run = run_point(
        payload, ("alone_ipcs",), ("detect",),
        shaped_cores=() if detect_core is None else (detect_core,),
    )
    ipcs = [core.ipc for core in run.report.cores]
    result = _result(
        run,
        ipcs=ipcs,
        slowdown=_avg_slowdown(ipcs, list(payload["alone_ipcs"])),
    )
    slip = getattr(run.system.scheduler, "slip_fraction", None)
    if callable(slip):
        result["slip_fraction"] = slip()
    if detect_core is not None:
        zoo = _zoo(
            run, detect_cfg.get("seed", run.defaults.seed),
            detect_cfg.get("window_cycles"), core=detect_core,
        )
        result["mi"] = zoo.mi_bits
        result["auc"] = zoo.auc
        result["xcorr"] = zoo.xcorr
        result["spectral"] = zoo.spectral
    return result


def noc_latency_task(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Single-core mean memory latency at the payload's NoC hop latency."""
    run = run_point(payload)
    return _result(
        run, mean_latency=run.report.core(0).mean_memory_latency()
    )
