"""Worker task functions for the parallel sweep executor, and the
sweep-point codec they share.

Each task here is the unit one worker process executes: a module-level
function (so ``spawn`` can pickle a reference to it) of one plain-JSON
payload dict, returning a plain-JSON result dict.  Keeping both sides
JSON-typed gives three properties at once:

* the payload digests canonically for the result cache
  (:func:`repro.parallel.cache.config_digest`);
* the result round-trips through the cache without loss, so a cache
  hit is byte-equivalent to a fresh run;
* the sequential (``jobs=1``) and pooled paths run the *same code* on
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
simulator stack is imported here at module level; ``_warm_worker``
pre-imports it in every pool worker.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.analysis.experiments import (
    ExperimentDefaults,
    _avg_slowdown,
    run_mix_system,
    staircase_config,
)
from repro.common.errors import ConfigurationError
from repro.core.bins import BinConfiguration, BinSpec
from repro.obs.export import serialize_registry
from repro.obs.metrics import MetricsRegistry
from repro.security.attacks import corunner_distinguishability
from repro.security.detect import detect_report, zoo_score
from repro.security.mutual_information import gap_rate_mi
from repro.sim.stats import SystemReport, report_digest
from repro.sim.system import RequestShapingPlan, System, SystemBuilder
from repro.workloads.spec import make_trace

#: Bucket edges (cycles) of the per-point run-length histogram in the
#: shard registry documents.
_POINT_CYCLE_EDGES = (
    1_000, 5_000, 10_000, 50_000, 100_000, 500_000, 1_000_000,
)


def _registry_doc(*reports) -> Dict[str, Any]:
    """The worker's serialized registry snapshot for one task.

    Every simulation task attaches this under ``"obs_registry"``; the
    executor strips it from the visible result and folds it into the
    cluster-level registry (``SweepExecutor.merged_registry``), so a
    ``repro sweep --serve`` scrape aggregates all shards as one
    system.  Only jobs-invariant, report-derived quantities appear —
    the merged exposition must be byte-identical across ``--jobs``.
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
    for report in reports:
        points.inc()
        cycles.inc(report.cycles_run)
        row_hits.inc(report.row_hits)
        row_misses.inc(report.row_misses)
        point_cycles.record(report.cycles_run)
        for core in report.cores:
            retired.inc(core.retired_instructions)
            demand.inc(core.demand_requests)
            fake.inc(
                core.fake_requests_sent + core.fake_responses_sent
            )
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
    window, slowdown denominators, ...).  ``defaults.seed`` may be
    ``None`` to leave the seed to the executor's per-task substream
    (GA fitness).  Plans travel as credit lists plus ``generate_fake``;
    a plan setting any other field cannot be encoded.
    """
    spec = defaults.spec if spec is None else spec
    plans = {}
    for core, plan in sorted((request_plans or {}).items()):
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
    task_seed: Optional[int] = None,
) -> Tuple[ExperimentDefaults, Dict[str, Any]]:
    """Validate a payload; return its run geometry and mix recipe.

    ``required``/``optional`` name the calling task's measurement
    fields; a missing or unknown field is a typed error, raised before
    anything is built.  The recipe is :func:`build_mix`'s keyword
    arguments (``benchmarks`` included); ``defaults.spec`` is the
    payload's spec and a ``None`` seed resolves to ``task_seed``.
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
    seed = payload["seed"]
    if seed is None:
        seed = 0 if task_seed is None else task_seed % (1 << 31)
    spec = BinSpec(tuple(payload["spec_edges"]), int(payload["spec_period"]))
    defaults = ExperimentDefaults(
        int(payload["accesses"]), int(payload["cycles"]), int(seed), spec
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
    the payload's spec and the resolved seed)."""

    system: System
    report: SystemReport
    defaults: ExperimentDefaults
    request_plans: Dict[int, RequestShapingPlan]


def run_point(
    payload: Dict[str, Any],
    required: Sequence[str] = (),
    optional: Sequence[str] = (),
    task_seed: Optional[int] = None,
    shaped_cores: Sequence[int] = (),
) -> PointRun:
    """Decode a payload, then build and run its machine.

    ``shaped_cores`` are the cores whose request plan the task scores
    against; a payload without a plan for one of them is rejected
    before the run.
    """
    defaults, recipe = decode_point(payload, required, optional, task_seed)
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


def _zoo(run: PointRun, label: str, seed: int, window_cycles: Optional[int],
         core: int = 0, target: Optional[BinConfiguration] = None):
    """Score ``core``'s request stream against the attacker zoo.

    The observed stream is the shaped one when the core has a request
    plan and the intrinsic one otherwise (the covert-channel worst
    case); ``target`` defaults to the plan's own configuration.  MI
    windows the whole run, so every task reports the same ``mi`` for
    the same machine.
    """
    stats = run.report.core(core)
    plan = run.request_plans.get(core)
    observed = stats.request_intrinsic if plan is None else stats.request_shaped
    return detect_report(
        label=label,
        intrinsic_gaps=stats.request_intrinsic.gaps,
        observed_gaps=observed.gaps,
        spec=run.defaults.spec,
        target_frequencies=(
            plan.config if target is None else target
        ).normalized(),
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
# single-program shaped points (Figure 2, the detect suite)
# ---------------------------------------------------------------------------

_ZOO_FIELDS = ("label", "window_cycles")


def tradeoff_point_task(payload: Dict[str, Any]) -> Dict[str, Any]:
    """One shaped point of the Figure 2 trade-off sweep.

    Runs the benchmark alone under the payload's credit configuration
    and reports IPC plus the full detectability-lab score set — the
    windowed-rate MI between the intrinsic and shaped request streams
    and the zoo's AUC / XCorr / spectral probes against the
    configuration's own target distribution.
    """
    run = run_point(
        payload, _ZOO_FIELDS, ("detect_seed",), shaped_cores=(0,)
    )
    zoo = _zoo(
        run, str(payload["label"]),
        payload.get("detect_seed", run.defaults.seed),
        int(payload["window_cycles"]),
    )
    return _result(
        run, label=payload["label"], ipc=run.report.core(0).ipc,
        **zoo.score_row(),
    )


def detect_point_task(payload: Dict[str, Any]) -> Dict[str, Any]:
    """One configuration of the attacker-zoo detectability suite.

    With a request plan the benchmark runs under that shaping
    configuration; without one the run is unshaped.
    ``payload["target_credits"]`` is always present: the distribution
    the zoo's classifiers test the observed stream against.
    """
    run = run_point(
        payload, (*_ZOO_FIELDS, "target_credits"), ("detect_seed",)
    )
    zoo = _zoo(
        run, str(payload["label"]),
        payload.get("detect_seed", run.defaults.seed),
        int(payload["window_cycles"]),
        target=BinConfiguration(tuple(payload["target_credits"])),
    )
    return _result(
        run,
        label=payload["label"],
        ipc=run.report.core(0).ipc,
        **zoo.score_row(),
        segments=zoo.segments,
        report_digest=zoo.digest(),
    )


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
            run, f"core{detect_core}",
            detect_cfg.get("seed", run.defaults.seed),
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


# ---------------------------------------------------------------------------
# mesh-position leakage points
# ---------------------------------------------------------------------------


def mesh_position_task(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Two-world distinguishability at one mesh position.

    Runs the adversary next to each candidate victim at
    ``payload["position"]`` and returns the distinguishability of its
    latency samples between the worlds (one point of
    :func:`repro.analysis.sweeps.mesh_position_leakage`).  The worlds
    are bespoke (fixed seeds, quarter-length filler programs), so only
    the payload's run geometry is used, not its mix recipe.
    """
    defaults, _recipe = decode_point(
        payload, ("victims", "position", "shaped", "num_cores")
    )
    spec = BinSpec(replenish_period=512)
    position = int(payload["position"])
    num_cores = int(payload["num_cores"])
    shaped = bool(payload["shaped"])

    def run_world(victim_name: str):
        builder = SystemBuilder(seed=defaults.seed).with_noc(topology="mesh")
        for core in range(num_cores):
            if core == 0:
                builder.add_core(
                    make_trace("gcc", defaults.accesses, seed=1)
                )
            elif core == position:
                plan = None
                if shaped:
                    plan = RequestShapingPlan(
                        config=staircase_config(spec, 1 / 16), spec=spec
                    )
                builder.add_core(
                    make_trace(victim_name, defaults.accesses,
                               seed=2 + core, base_address=core << 33),
                    request_shaping=plan,
                )
            else:
                builder.add_core(
                    make_trace("sjeng", defaults.accesses // 4,
                               seed=50 + core, base_address=core << 33)
                )
        report = builder.build().run(defaults.cycles, stop_when_done=False)
        return report

    world_a = run_world(payload["victims"][0])
    world_b = run_world(payload["victims"][1])
    return {
        "position": position,
        "distinguishability": corunner_distinguishability(
            world_a.core(0).memory_latencies,
            world_b.core(0).memory_latencies,
        ),
        "digest_a": report_digest(world_a),
        "digest_b": report_digest(world_b),
        "obs_registry": _registry_doc(world_a, world_b),
    }


# ---------------------------------------------------------------------------
# GA population fitness
# ---------------------------------------------------------------------------


def ga_fitness_task(
    payload: Dict[str, Any], task_seed: Optional[int] = None
) -> Dict[str, Any]:
    """Offline fitness of one genome: slowdown plus a leakage penalty.

    The genome (the credit vector of core 0's request plan) shapes the
    benchmark's requests; the cost is ``slowdown + zoo_score(mi, auc,
    xcorr)`` — the Figure 2 trade-off collapsed to a scalar, which is
    what the offline GA minimises when searching shaping
    configurations without a live system.  With the default weights
    (``mi_weight=1``, ``auc_weight`` and ``xcorr_weight`` 0) this is
    exactly the historical ``slowdown + mi_weight * windowed_mi``;
    non-zero zoo weights turn the fitness multi-objective, scoring each genome against the
    trained-classifier and cross-correlation attackers with the
    genome's own normalized credits as the target distribution.
    ``task_seed`` (the executor's per-genome substream seed) seeds the
    evaluation run when the payload does not pin one, so every genome
    is scored on a decorrelated, reproducible stream.
    """
    run = run_point(
        payload, ("base_ipc", "window_cycles"),
        ("detect_seed", "mi_weight", "auc_weight", "xcorr_weight"),
        task_seed=task_seed, shaped_cores=(0,),
    )
    ipc = run.report.core(0).ipc
    slowdown = float(payload["base_ipc"]) / ipc if ipc > 0 else 1e6
    window_cycles = int(payload["window_cycles"])
    auc_weight = float(payload.get("auc_weight", 0.0))
    xcorr_weight = float(payload.get("xcorr_weight", 0.0))
    auc = xcorr = 0.0
    if auc_weight > 0.0 or xcorr_weight > 0.0:
        zoo = _zoo(
            run, "genome", payload.get("detect_seed", run.defaults.seed),
            window_cycles,
        )
        mi, auc, xcorr = zoo.mi_bits, zoo.auc, zoo.xcorr
        result = _result(run, slowdown=slowdown, mi=mi, auc=auc, xcorr=xcorr)
    else:
        stats = run.report.core(0)
        mi = gap_rate_mi(
            stats.request_intrinsic.gaps, stats.request_shaped.gaps,
            window_cycles, run.report.cycles_run,
        )
        result = _result(run, slowdown=slowdown, mi=mi)
    result["fitness"] = slowdown + zoo_score(
        mi, auc, xcorr,
        mi_weight=float(payload.get("mi_weight", 1.0)),
        auc_weight=auc_weight,
        xcorr_weight=xcorr_weight,
    )
    return result


def ga_population_evaluator(executor, payload_base: Dict[str, Any]):
    """A ``map_evaluate`` for :meth:`GeneticAlgorithm.step`.

    Wraps ``executor`` (a :class:`~repro.parallel.SweepExecutor`) so
    one generation's fitness runs fan out as :func:`ga_fitness_task`
    shards — each genome installed as core 0's request plan in
    ``payload_base`` (an :func:`encode_point` payload) plus its own
    deterministic ``task_seed`` (the executor's lifetime counter keeps
    seeds stable across generations and cache states).  Returns
    fitnesses in population order, which is all the GA's breeding
    loop needs for bit-identical evolution at any ``jobs`` value.
    """

    def map_evaluate(genomes) -> List[float]:
        payloads = [
            dict(payload_base, request_plans={"0": _plan_doc(genome)})
            for genome in genomes
        ]
        rows = executor.map(
            ga_fitness_task, payloads, kind="ga-fitness",
            labels=[f"genome{i}" for i in range(len(payloads))],
        )
        return [row["fitness"] for row in rows]

    return map_evaluate
