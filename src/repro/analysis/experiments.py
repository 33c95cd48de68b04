"""Experiment drivers for every table and figure in the evaluation.

Each public function regenerates the data behind one paper artefact
(the index lives in DESIGN.md section 3).  They are deliberately
deterministic: a (defaults, seed) pair pins every workload draw and
every fake-traffic address, so benchmark output is stable run to run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError
from repro.common.util import canonical_json_digest, fold_sum, geometric_mean
from repro.core.bins import (
    BinConfiguration,
    BinSpec,
    MAX_CREDITS_PER_BIN,
    constant_rate_config,
)
from repro.core.distribution import InterArrivalHistogram
from repro.ga.online import OnlineGaTuner, ShaperHandle, TunerConfig
from repro.security.attacks import bit_error_rate, decode_covert_key
from repro.security.detect import DetectReport
from repro.security.leakage import accumulated_response_difference
from repro.security.mutual_information import gap_rate_mi, interarrival_mi
from repro.security.prober import prober_trace
from repro.sim.stats import SystemReport
from repro.sim.system import (
    RequestShapingPlan,
    ResponseShapingPlan,
    System,
    SystemBuilder,
)
from repro.workloads.covert import CovertChannelConfig, covert_sender_trace, key_to_bits
from repro.workloads.spec import BENCHMARK_NAMES, make_trace

if TYPE_CHECKING:
    import numpy as np

#: Address-space stride separating co-running programs' allocations.
_CORE_ADDRESS_STRIDE = 1 << 33

#: The config ladder's replenishment period and its multi-period MI
#: window, which :func:`measure_mi_suite` shares (see there for why the
#: window spans periods).
LADDER_REPLENISH_PERIOD = 512
LADDER_WINDOW_CYCLES = 2048

#: Fig 12's bandwidth budget over the program's average request rate.
_FIG12_HEADROOM = 1.1
#: The covert channels' replenishment period, much shorter than a pulse.
_COVERT_REPLENISH_PERIOD = 512


def _ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``; infinite when the run it divides by
    made no progress."""
    return numerator / denominator if denominator > 0 else float("inf")


def constant_rate_interval_for(spec: BinSpec, target_interval: float) -> int:
    """The CS-baseline release interval for a target inter-arrival time.

    Picks the largest bin edge not exceeding ``target_interval`` (never
    slower than the bandwidth budget, slightly favouring the CS
    baseline).  When *every* edge exceeds the target — the program's
    rate outruns even the fastest bin — there is no edge on the correct
    side, so the interval clamps to the **nearest** edge.  The ladder
    rows record what the clamp cost as ``requested_rate`` against
    ``granted_rate``.
    """
    eligible = [edge for edge in spec.edges if edge <= target_interval]
    if eligible:
        return max(eligible)
    return min(spec.edges, key=lambda e: (abs(e - target_interval), e))


@dataclass(frozen=True)
class ExperimentDefaults:
    """Shared experiment knobs.

    ``accesses`` bounds each program's trace length; ``cycles`` bounds
    each run.  The paper's runs are longer in absolute terms; these
    defaults keep a full benchmark sweep tractable on one machine
    while leaving every workload deep in steady state.
    """

    accesses: int = 4000
    cycles: int = 40000
    seed: int = 42
    spec: BinSpec = BinSpec()

    def scaled(self, factor: float) -> "ExperimentDefaults":
        return replace(
            self,
            accesses=max(1, int(self.accesses * factor)),
            cycles=max(1, int(self.cycles * factor)),
        )


# ---------------------------------------------------------------------------
# basic runs
# ---------------------------------------------------------------------------


def build_mix(
    benchmarks: Sequence[str],
    defaults: ExperimentDefaults,
    request_plans: Optional[Dict[int, RequestShapingPlan]] = None,
    response_plans: Optional[Dict[int, ResponseShapingPlan]] = None,
    scheduler: str = "frfcfs",
    scheduler_kwargs: Optional[Dict] = None,
    bank_partitioning: bool = False,
    trace_repeat: int = 1,
    slots: Optional[Sequence[int]] = None,
    noc_latency: Optional[int] = None,
) -> System:
    """The one machine recipe: these programs, at these address slots,
    under these shaping plans and this scheduler.

    ``slots[i]`` is the address-space slot (and trace-seed offset) of
    program *i*; the default ``0..n-1`` is a program's placement inside
    the mix, and an explicit slot reproduces that placement in a
    smaller system so alone-vs-shared IPC ratios compare the same trace
    byte for byte.  ``trace_repeat`` loops each program's trace —
    needed when a run is longer than the default cycle budget (e.g. a
    GA CONFIG phase preceding the measured RUN phase) so no core drains
    early.  ``noc_latency`` overrides the NoC hop latency.
    """
    request_plans = request_plans or {}
    response_plans = response_plans or {}
    if slots is None:
        slots = range(len(benchmarks))
    elif len(slots) != len(benchmarks):
        raise ConfigurationError(
            f"need one slot per program: {len(slots)} slots for "
            f"{len(benchmarks)} programs"
        )
    builder = SystemBuilder(seed=defaults.seed)
    builder.with_scheduler(scheduler, **(scheduler_kwargs or {}))
    if bank_partitioning:
        builder.with_bank_partitioning()
    if noc_latency is not None:
        builder.with_noc(latency=noc_latency)
    for core_id, (name, slot) in enumerate(zip(benchmarks, slots)):
        trace = make_trace(
            name,
            num_accesses=defaults.accesses,
            seed=defaults.seed + slot,
            base_address=slot * _CORE_ADDRESS_STRIDE,
        )
        if trace_repeat > 1:
            trace = trace.repeated(trace_repeat)
        builder.add_core(
            trace,
            request_shaping=request_plans.get(core_id),
            response_shaping=response_plans.get(core_id),
        )
    return builder.build()


def run_mix_system(
    benchmarks: Sequence[str],
    defaults: ExperimentDefaults = ExperimentDefaults(),
    **kwargs,
) -> Tuple[System, SystemReport]:
    """Build a mix and run it for the default cycle budget.

    The one place a benchmark mix is run for ``defaults.cycles``;
    callers that only want the report use :func:`run_mix`, the few that
    also read the finished machine (scheduler slip, bus grant trace)
    take the system from here.
    """
    system = build_mix(benchmarks, defaults, **kwargs)
    return system, system.run(defaults.cycles, stop_when_done=False)


def run_mix(
    benchmarks: Sequence[str],
    defaults: ExperimentDefaults = ExperimentDefaults(),
    **kwargs,
) -> SystemReport:
    """Run a multiprogram mix for the default cycle budget."""
    return run_mix_system(benchmarks, defaults, **kwargs)[1]


def run_alone(
    benchmark: str,
    defaults: ExperimentDefaults = ExperimentDefaults(),
    request_plan: Optional[RequestShapingPlan] = None,
    core_slot: int = 0,
) -> SystemReport:
    """Run one program alone (no co-runners, FR-FCFS): a one-program
    mix at address slot ``core_slot``."""
    return run_mix(
        [benchmark], defaults,
        request_plans=None if request_plan is None else {0: request_plan},
        slots=[core_slot],
    )


# ---------------------------------------------------------------------------
# configuration derivation
# ---------------------------------------------------------------------------


def config_from_histogram(
    histogram: InterArrivalHistogram,
    events_per_cycle: float,
    spec: BinSpec,
) -> BinConfiguration:
    """Turn a measured distribution + rate into a credit configuration.

    Credits per period = rate × period, split across bins proportional
    to the measured frequencies.  This is how the paper's experiments
    set a shaper to "the response distribution of workload X"
    (section IV-D2) and how ReqC "leverages applications' constructive
    traffic" at a fixed bandwidth budget (section IV-E2).
    """
    if events_per_cycle < 0:
        raise ConfigurationError("events_per_cycle must be non-negative")
    total = max(1, round(events_per_cycle * spec.replenish_period))
    freqs = histogram.frequencies()
    credits = [min(MAX_CREDITS_PER_BIN, round(f * total)) for f in freqs]
    if sum(credits) == 0:
        # Degenerate histogram (too few samples): put the budget into
        # the bin matching the average gap.
        gap = int(1.0 / events_per_cycle) if events_per_cycle > 0 else spec.edges[-1]
        credits[spec.bin_of(gap)] = total
    return BinConfiguration(tuple(credits))


def config_from_report(
    report: SystemReport,
    core: int,
    spec: BinSpec,
    rate_scale: float = 1.0,
    stream: str = "response",
) -> BinConfiguration:
    """The config matching a finished run's measured traffic: the shape
    of ``core``'s intrinsic ``stream`` ("request" or "response")
    distribution at ``rate_scale`` times its average rate."""
    histogram = getattr(report.core(core), f"{stream}_intrinsic")
    rate = histogram.total / max(1, report.cycles_run)
    return config_from_histogram(histogram, rate * rate_scale, spec)


def derive_request_config(
    benchmark: str,
    defaults: ExperimentDefaults = ExperimentDefaults(),
    bandwidth_scale: float = 1.0,
    core_slot: int = 0,
) -> BinConfiguration:
    """Profile a program alone and build a matching request config.

    ``bandwidth_scale`` scales the credit budget relative to the
    measured intrinsic rate (1.0 = just enough for the intrinsic
    traffic on average).
    """
    return config_from_report(
        run_alone(benchmark, defaults, core_slot=core_slot), 0,
        defaults.spec, bandwidth_scale, stream="request",
    )


def staircase_config(
    spec: BinSpec, events_per_cycle: float
) -> BinConfiguration:
    """A *predetermined* distribution independent of any program.

    The DESIRED staircase of Figure 11 — decreasing credit counts from
    the fastest to the slowest bin — scaled so its total credit budget
    sustains ``events_per_cycle`` on average.  Used wherever the paper
    shapes into a fixed distribution chosen without looking at the
    intrinsic traffic (the property that makes the shaped stream carry
    no program information).
    """
    if events_per_cycle <= 0:
        raise ConfigurationError("events_per_cycle must be positive")
    total = max(1, round(events_per_cycle * spec.replenish_period))
    n = spec.num_bins
    weights = [n - k for k in range(n)]
    weight_sum = sum(weights)
    # Largest-remainder apportionment: the credit total is honoured
    # exactly, so small budgets actually throttle (a per-bin floor of 1
    # would silently raise every budget to >= num_bins credits).
    exact = [w * total / weight_sum for w in weights]
    credits = [int(e) for e in exact]
    remainders = sorted(
        range(n), key=lambda k: exact[k] - credits[k], reverse=True
    )
    shortfall = total - sum(credits)
    for k in remainders[:shortfall]:
        credits[k] += 1
    credits = [min(MAX_CREDITS_PER_BIN, c) for c in credits]
    if sum(credits) == 0:
        credits[0] = 1
    return BinConfiguration(tuple(credits))


def derive_response_config(
    benchmarks: Sequence[str],
    adversary_core: int,
    defaults: ExperimentDefaults = ExperimentDefaults(),
    rate_scale: float = 1.0,
) -> BinConfiguration:
    """Measure a mix's adversary response distribution → RespC config."""
    return config_from_report(
        run_mix(benchmarks, defaults), adversary_core, defaults.spec,
        rate_scale,
    )


# ---------------------------------------------------------------------------
# Figure 12 — ReqC vs the constant rate shaper
# ---------------------------------------------------------------------------


def reqc_speedup_experiment(
    benchmark: str,
    defaults: ExperimentDefaults = ExperimentDefaults(),
) -> Dict[str, float]:
    """Program speedup of ReqC over a static rate limiter (Fig 12).

    Both shapers get the *same average bandwidth budget*, set a small
    headroom above the program's measured average request rate —
    the analogue of the paper's fixed 1 GB/s allotment, which sits
    near the suite's average demands.  The constant shaper serializes
    every burst at its fixed interval; Camouflage spreads the identical
    credit total across bins proportional to the intrinsic
    distribution, so bursts pass through at burst speed.  Programs with
    bursty traffic (mcf, omnetpp, apache) gain most; smooth or sparse
    programs are unaffected — the Figure 12 pattern.
    """
    spec = defaults.spec
    base_report = run_alone(benchmark, defaults)
    intrinsic = base_report.core(0).request_intrinsic
    rate = intrinsic.total / max(1, base_report.cycles_run)
    target_interval = 1.0 / max(rate * _FIG12_HEADROOM, 1e-9)
    # The constant shaper's interval must be one of the bin edges.
    interval = constant_rate_interval_for(spec, target_interval)
    budget = spec.replenish_period // interval

    cs_config = constant_rate_config(spec, interval)
    cs_report = run_alone(
        benchmark, defaults,
        request_plan=RequestShapingPlan(config=cs_config, spec=spec),
    )

    camo_config = config_from_histogram(
        intrinsic, budget / spec.replenish_period, spec
    )
    camo_report = run_alone(
        benchmark, defaults,
        request_plan=RequestShapingPlan(config=camo_config, spec=spec),
    )

    cs_ipc = cs_report.core(0).ipc
    camo_ipc = camo_report.core(0).ipc
    return {
        "benchmark": benchmark,
        "interval": float(interval),
        "cs_ipc": cs_ipc,
        "camouflage_ipc": camo_ipc,
        "speedup": _ratio(camo_ipc, cs_ipc),
    }


# ---------------------------------------------------------------------------
# Figures 9 / 10 — Response Camouflage
# ---------------------------------------------------------------------------


def _mix_names(adversary: str, victim: str) -> List[str]:
    """The paper's w(ADVERSARY, victim) = (ADV, victim, victim, victim)."""
    return [adversary, victim, victim, victim]


def respc_context_experiment(
    adversary: str,
    defaults: ExperimentDefaults = ExperimentDefaults(),
    contexts: Tuple[str, str] = ("astar", "mcf"),
) -> Dict[str, Dict[str, float]]:
    """Figure 10: shape each context's ADV responses to the *other*.

    Returns per-context dicts with the ADVERSARY performance slowdown
    and the overall throughput slowdown of RespC relative to no
    shaping (>1 = shaping made it slower).
    """
    ctx_a, ctx_b = contexts
    results: Dict[str, Dict[str, float]] = {}

    baseline = {
        ctx: run_mix(_mix_names(adversary, ctx), defaults)
        for ctx in contexts
    }
    target_config = {
        ctx: config_from_report(baseline[ctx], 0, defaults.spec)
        for ctx in contexts
    }

    for ctx, other in ((ctx_a, ctx_b), (ctx_b, ctx_a)):
        shaped = run_mix(
            _mix_names(adversary, ctx),
            defaults,
            response_plans={
                0: ResponseShapingPlan(
                    config=target_config[other], spec=defaults.spec
                )
            },
            scheduler="priority",
        )
        base = baseline[ctx]
        results[ctx] = {
            "adversary_slowdown": _ratio(
                base.core(0).ipc, shaped.core(0).ipc
            ),
            "throughput_slowdown": _ratio(
                base.total_throughput(), shaped.total_throughput()
            ),
        }
    return results


def fig9_experiment(
    adversary: str,
    defaults: ExperimentDefaults = ExperimentDefaults(),
    contexts: Tuple[str, str] = ("astar", "mcf"),
) -> Dict[str, np.ndarray]:
    """Figure 9: accumulated response-time difference across contexts.

    The adversary runs once next to each context; the difference of its
    cumulative response-time curves is returned for FR-FCFS (grows)
    and for RespC with a *fixed* target distribution (stays flat).
    """
    ctx_a, ctx_b = contexts
    base_a = run_mix(_mix_names(adversary, ctx_a), defaults)
    base_b = run_mix(_mix_names(adversary, ctx_b), defaults)
    unshaped = accumulated_response_difference(base_a.core(0), base_b.core(0))

    # One fixed target distribution for both contexts: the defining
    # property of Camouflage (the observable does not track co-runners).
    # The target is derived from the *slower* context (higher-intensity
    # co-runners) and tightened slightly, so the credit schedule — not
    # the co-runner-dependent service rate — binds in both contexts.
    target = config_from_report(base_b, 0, defaults.spec, rate_scale=0.6)
    plan = {
        0: ResponseShapingPlan(
            config=target, spec=defaults.spec, strict_binning=True
        )
    }
    shaped_a = run_mix(
        _mix_names(adversary, ctx_a), defaults,
        response_plans=plan, scheduler="priority",
    )
    shaped_b = run_mix(
        _mix_names(adversary, ctx_b), defaults,
        response_plans=plan, scheduler="priority",
    )
    shaped = accumulated_response_difference(shaped_a.core(0), shaped_b.core(0))
    baseline_total = float(base_a.core(0).accumulated_response_time()[-1])
    return {
        "frfcfs_difference": unshaped,
        "camouflage_difference": shaped,
        "baseline_total": baseline_total,
    }


# ---------------------------------------------------------------------------
# Figure 13 — BDC vs TP vs FS
# ---------------------------------------------------------------------------


def bdc_comparison(
    adversary: str,
    victim: str,
    defaults: ExperimentDefaults = ExperimentDefaults(),
    tp_turn_length: int = 128,
    fs_interval: int = 20,
    tune: bool = False,
    tuner_config: Optional[TunerConfig] = None,
) -> Dict[str, float]:
    """Figure 13: program average slowdown under TP, FS+banks, and BDC.

    Slowdown of each program = IPC alone / IPC in the protected mix;
    reported per technique as the mean over the four programs.
    """
    names = _mix_names(adversary, victim)
    alone_ipcs = [
        run_alone(name, defaults, core_slot=slot).core(0).ipc
        for slot, name in enumerate(names)
    ]

    tp_report = run_mix(
        names, defaults, scheduler="tp",
        scheduler_kwargs={"turn_length": tp_turn_length},
    )
    fs_report = run_mix(
        names, defaults, scheduler="fs",
        scheduler_kwargs={"interval": fs_interval},
        bank_partitioning=True,
    )

    # BDC: request shaping on the protected victims, response shaping
    # on the adversary.  Distributions are derived from the *shared*
    # baseline run: a config pinned at a program's alone-rate would
    # force the shapers to flood the bus with fake traffic whenever
    # contention keeps the program below that rate, drowning the mix
    # (the GA would never pick such a point).  Optionally refined
    # online by the GA when ``tune``.
    baseline = run_mix(names, defaults)
    request_plans = {}
    for core in (1, 2, 3):
        request_plans[core] = RequestShapingPlan(
            config=config_from_report(
                baseline, core, defaults.spec, 1.1, stream="request"
            ),
            spec=defaults.spec,
        )
    response_plans = {
        0: ResponseShapingPlan(
            config=config_from_report(baseline, 0, defaults.spec),
            spec=defaults.spec,
        )
    }
    # Long settle windows: the fake-traffic feedback loop (shaper
    # shortfall → fake load → congestion → more shortfall) takes
    # ~15k cycles to reach steady state, and a child must be scored on
    # its steady state or the GA keeps transient-flattered infeasible
    # configurations.
    effective_tuner_config = tuner_config or TunerConfig(
        epoch_cycles=6000, profile_cycles=1500, settle_cycles=14000,
        population_size=6, generations=3,
    )
    trace_repeat = 1
    if tune:
        # The CONFIG phase consumes cycles before the measured RUN
        # phase; loop the traces so no core drains mid-tuning.
        tc = effective_tuner_config
        config_cycles = tc.generations * (
            len(names) * tc.profile_cycles
            + tc.population_size * (tc.epoch_cycles + tc.settle_cycles)
        )
        trace_repeat = 1 + math.ceil(
            3.0 * (config_cycles + defaults.cycles) / max(1, defaults.cycles)
        )
    bdc_system = build_mix(
        names, defaults,
        request_plans=request_plans,
        response_plans=response_plans,
        scheduler="priority",
        trace_repeat=trace_repeat,
    )
    if tune:
        handles = [
            ShaperHandle(
                name=f"req-core{core}",
                num_bins=defaults.spec.num_bins,
                reconfigure=bdc_system.request_paths[core].shaper.reconfigure,
            )
            for core in (1, 2, 3)
        ] + [
            ShaperHandle(
                name="resp-core0",
                num_bins=defaults.spec.num_bins,
                reconfigure=bdc_system.response_paths[0].shaper.reconfigure,
            )
        ]
        tuner = OnlineGaTuner(
            bdc_system, handles,
            config=effective_tuner_config,
            seed=defaults.seed,
            alone_ipcs=alone_ipcs,
        )
        seed_genome = tuple(
            g
            for core in (1, 2, 3)
            for g in request_plans[core].config.credits
        ) + tuple(response_plans[0].config.credits)
        # Seed the search with the derived configs plus scaled-down
        # variants: tight budgets avoid the fake-traffic saturation
        # spiral in heavy mixes and give the GA a feasible region to
        # refine from.
        seeds = [seed_genome] + [
            tuple(max(0, round(g * f)) for g in seed_genome)
            for f in (0.7, 0.5, 0.35)
        ]
        tuning = tuner.tune(seed_genomes=seeds)
        # Validation pass: the GA's per-child windows are short and
        # noisy, so re-measure the seed and the GA winner over longer
        # windows and install whichever is actually better (a runtime
        # would do exactly this before committing a configuration).
        def validate(genome) -> float:
            tuner.apply_genome(genome)
            bdc_system.run(effective_tuner_config.settle_cycles or 1,
                           stop_when_done=False)
            rates, alphas, ipcs = tuner._measure_window(
                2 * effective_tuner_config.epoch_cycles
            )
            return _avg_slowdown(ipcs, alone_ipcs)

        candidates = [seed_genome, tuning.best_genome]
        scores = [validate(g) for g in candidates]
        winner = candidates[scores.index(min(scores))]
        tuner.apply_genome(winner)
        # Settle on the winning configuration before measuring.
        bdc_system.run(effective_tuner_config.settle_cycles or 1,
                       stop_when_done=False)

    # Measure the BDC RUN phase as a window delta so a preceding GA
    # CONFIG phase (profiling + bad children) does not pollute the IPC.
    before_retired = [core.retired_instructions for core in bdc_system.cores]
    before_cycles = [core.cycles for core in bdc_system.cores]
    bdc_system.run(defaults.cycles, stop_when_done=False)
    bdc_ipcs = []
    for core_id, core in enumerate(bdc_system.cores):
        cycles = core.cycles - before_cycles[core_id]
        retired = core.retired_instructions - before_retired[core_id]
        bdc_ipcs.append(retired / cycles if cycles else 0.0)

    def avg_slowdown_report(report: SystemReport) -> float:
        return _avg_slowdown([c.ipc for c in report.cores], alone_ipcs)

    return {
        "tp_slowdown": avg_slowdown_report(tp_report),
        "fs_slowdown": avg_slowdown_report(fs_report),
        "camouflage_slowdown": _avg_slowdown(bdc_ipcs, alone_ipcs),
    }


def _avg_slowdown(shared_ipcs: Sequence[float],
                  alone_ipcs: Sequence[float]) -> float:
    slowdowns = [
        alone / shared
        for shared, alone in zip(shared_ipcs, alone_ipcs)
        if shared > 0 and alone > 0
    ]
    if not slowdowns:
        return float("inf")
    if len(slowdowns) >= 8:
        # np.mean sums 8 or more values in eight interleaved partial
        # sums, so only numpy reproduces its bits there (an 8-core
        # scalability mix).
        import numpy as np

        return float(np.mean(slowdowns))
    # Below 8 values numpy's pairwise sum is a plain left-to-right loop.
    return fold_sum(slowdowns) / len(slowdowns)


# ---------------------------------------------------------------------------
# Section IV-B2 — mutual-information measurements
# ---------------------------------------------------------------------------


def measure_mi_suite(
    adversary: str = "astar",
    protected: str = "bzip",
    defaults: ExperimentDefaults = ExperimentDefaults(),
) -> Dict[str, Dict[str, float]]:
    """The paper's MI table: no shaping / CS / ReqC, ± fake traffic.

    The MI window (``LADDER_WINDOW_CYCLES``) spans several of the
    ladder's replenishment periods: Camouflage targets *long-term* timing information ("longer than the
    replenishment period", section IV-B4) — fake-traffic compensation
    is one period delayed, so single-period windows see a differenced
    echo that telescopes away over multi-period windows.

    For each scheme, two MI views of the protected program's request
    stream: ``paired`` (intrinsic vs shaped inter-arrival sequences,
    section IV-B2's measurement) and ``windowed`` (per-window rate MI
    including fake traffic — the bus prober's statistic).  Both the CS
    and ReqC targets are *predetermined* distributions chosen without
    reference to the program's intrinsic shape, as in the paper — a
    distribution derived from the intrinsic traffic would preserve the
    very correlation the shaper exists to destroy.  Miller–Madow bias
    correction is applied: the plug-in estimator's finite-sample bias
    would otherwise dominate the near-zero leakage values.
    """
    spec = replace(defaults.spec, replenish_period=LADDER_REPLENISH_PERIOD)
    names = [adversary, protected]

    def mi_of(report: SystemReport) -> Dict[str, float]:
        stats = report.core(1)
        intrinsic = stats.request_intrinsic
        shaped = stats.request_shaped
        paired = interarrival_mi(
            intrinsic.gaps, shaped.gaps, spec, bias_correction=True
        )
        windowed = gap_rate_mi(
            intrinsic.gaps, shaped.gaps, LADDER_WINDOW_CYCLES, report.cycles_run
        )
        return {"paired": paired, "windowed": windowed}

    base = run_mix(names, defaults)
    base_stats = base.core(1)
    base_gaps = base_stats.request_intrinsic.gaps
    # The anchor must use the same estimator configuration as every
    # shaped row (bias correction included), or the table's rows are
    # not mutually comparable.
    self_mi = interarrival_mi(base_gaps, base_gaps, spec, bias_correction=True)

    rate = base_stats.request_intrinsic.total / max(1, base.cycles_run)
    camo_config = staircase_config(spec, rate * 1.2)
    # Constant-rate interval: the largest edge sustaining 1.2x the rate.
    cs_interval = constant_rate_interval_for(spec, 1.0 / max(rate * 1.2, 1e-9))
    cs_config = constant_rate_config(spec, cs_interval)

    results: Dict[str, Dict[str, float]] = {
        "no_shaping": {
            "paired": self_mi,
            "windowed": gap_rate_mi(
                base_gaps, base_gaps, LADDER_WINDOW_CYCLES, base.cycles_run
            ),
        }
    }
    for label, config, fake in (
        ("cs_no_fake", cs_config, False),
        ("reqc_no_fake", camo_config, False),
        ("cs_fake", cs_config, True),
        ("reqc_fake", camo_config, True),
    ):
        report = run_mix(
            names, defaults,
            request_plans={
                1: RequestShapingPlan(config=config, spec=spec, generate_fake=fake)
            },
        )
        results[label] = mi_of(report)
    return results


# ---------------------------------------------------------------------------
# Figures 14 / 15 — covert channel
# ---------------------------------------------------------------------------


def _covert_staircase(spec: BinSpec) -> BinConfiguration:
    """A mid-rate staircase: most credits at fast bins, a tail of slow
    ones — the DESIRED shape of Figure 11, scaled so the total rate
    sits between the covert sender's ON and OFF rates."""
    return BinConfiguration(
        tuple(max(1, (spec.num_bins - k) * 4) for k in range(spec.num_bins))
    )


def covert_channel_experiment(
    key: int,
    bits: int = 32,
    defaults: ExperimentDefaults = ExperimentDefaults(),
    pulse_cycles: int = 3000,
    shaped: bool = True,
    shaping_config: Optional[BinConfiguration] = None,
    replenish_period: int = _COVERT_REPLENISH_PERIOD,
) -> Dict:
    """Run the Algorithm-1 sender and attack the bus trace.

    Returns the bus-event timeline, the per-pulse window counts, the
    decoded bits and the bit error rate — for the unshaped channel
    (``shaped=False``: perfect recovery) or under ReqC
    (``shaped=True``: recovery collapses).

    ``replenish_period`` defaults to a short window: fake-traffic
    compensation is one period delayed (Figure 7), so a window much
    shorter than PULSE removes the transition echo an attacker could
    otherwise correlate on — the paper's own mitigation ("short term
    information leakage can be mitigated by reducing the size of the
    replenishment window", section IV-B4).
    """
    import numpy as np

    key_bits = key_to_bits(key, bits)
    covert_config = CovertChannelConfig(pulse_cycles=pulse_cycles)
    trace = covert_sender_trace(key_bits, covert_config)

    builder = SystemBuilder(seed=defaults.seed)
    spec = replace(defaults.spec, replenish_period=replenish_period)
    plan = None
    if shaped:
        plan = RequestShapingPlan(
            config=shaping_config or _covert_staircase(spec), spec=spec
        )
    builder.add_core(trace, request_shaping=plan)
    system = builder.build()
    total_cycles = pulse_cycles * bits + 4 * pulse_cycles
    system.run(total_cycles, stop_when_done=False)

    bus_events = [
        grant_cycle
        for grant_cycle, port, _txn in system.request_link.grant_trace
        if port == 0
    ]
    decoded = decode_covert_key(bus_events, pulse_cycles, bits)
    counts = np.zeros(bits, dtype=np.int64)
    for t in bus_events:
        index = t // pulse_cycles
        if index < bits:
            counts[index] += 1
    return {
        "key_bits": key_bits,
        "bus_events": bus_events,
        "window_counts": counts,
        "decoded_bits": decoded,
        "bit_error_rate": bit_error_rate(decoded, key_bits),
    }


def covert_interference_experiment(
    key: int,
    bits: int = 16,
    defaults: ExperimentDefaults = ExperimentDefaults(),
    pulse_cycles: int = 3000,
    defense: Optional[str] = None,
) -> Dict:
    """The two-VM covert channel (section II-A's receiver variant).

    Unlike Figures 14/15 (an observer on the bus), here the *receiver*
    is a co-scheduled VM that issues steady probe requests and decodes
    the key from its own per-pulse mean response latencies — the
    channel rides on memory interference, not on wire visibility.

    ``defense`` ∈ {None, "reqc", "respc"}: shape the sender's requests
    (closing the channel at its source) or the receiver's responses
    (denying it the latency measurement).
    """
    import numpy as np

    if defense not in (None, "reqc", "respc"):
        raise ConfigurationError(f"unknown defense {defense!r}")
    key_bits = key_to_bits(key, bits)
    sender_trace = covert_sender_trace(
        key_bits, CovertChannelConfig(pulse_cycles=pulse_cycles)
    )
    total_cycles = pulse_cycles * bits + 4 * pulse_cycles
    # The receiver probes steadily for the whole transmission.
    receiver_trace = prober_trace(
        max(64, total_cycles // 25), gap_insts=100
    )

    spec = replace(defaults.spec, replenish_period=_COVERT_REPLENISH_PERIOD)
    builder = SystemBuilder(seed=defaults.seed)
    receiver_response_plan = None
    sender_request_plan = None
    if defense == "reqc":
        sender_request_plan = RequestShapingPlan(
            config=_covert_staircase(spec), spec=spec
        )
    elif defense == "respc":
        # A constant response distribution for the receiver: its
        # latency probe then reads back its own shaping, not the
        # sender's interference.
        receiver_response_plan = ResponseShapingPlan(
            config=constant_rate_config(spec, 128), spec=spec,
            enable_warning=False, strict_binning=True,
        )
    builder.add_core(receiver_trace,
                     response_shaping=receiver_response_plan)
    builder.add_core(sender_trace, request_shaping=sender_request_plan)
    system = builder.build()
    system.run(total_cycles, stop_when_done=False)
    report = system.report()

    # Decode from the receiver's per-pulse mean latency.
    receiver = report.core(0)
    window_sums = np.zeros(bits)
    window_counts = np.zeros(bits)
    for delivered_cycle, latency in receiver.response_times:
        index = delivered_cycle // pulse_cycles
        if index < bits:
            window_sums[index] += latency
            window_counts[index] += 1
    means = np.divide(
        window_sums, np.maximum(window_counts, 1),
        out=np.zeros(bits), where=window_counts > 0,
    )
    threshold = (means.min() + means.max()) / 2.0
    decoded = [1 if m > threshold else 0 for m in means]
    key_array = np.array(key_bits, dtype=float)
    correlation = 0.0
    if means.std() > 0 and key_array.std() > 0:
        correlation = float(np.corrcoef(key_array, means)[0, 1])
    return {
        "key_bits": key_bits,
        "window_mean_latency": means,
        "decoded_bits": decoded,
        "bit_error_rate": bit_error_rate(decoded, key_bits),
        # Point-biserial correlation between key bits and the
        # receiver's per-pulse latency: the honest strength measure of
        # this channel, which in this substrate is much weaker than
        # the bus channel (the open-loop trace sender drifts out of
        # pulse alignment under contention — a real sender would
        # re-synchronize from the clock).
        "latency_key_correlation": correlation,
        "receiver_probes": len(receiver.response_times),
    }


# ---------------------------------------------------------------------------
# Figure 2 — the security/performance trade-off space
# ---------------------------------------------------------------------------


def _resolve_executor(executor, jobs: int, cache_dir: Optional[str],
                      seed: int):
    """The executor an experiment fans out through.

    An explicitly passed ``executor`` wins (callers can share one
    cache/seed counter across experiments); otherwise a fresh
    :class:`~repro.parallel.executor.SweepExecutor` is built from
    ``jobs``/``cache_dir``.
    """
    if executor is not None:
        return executor
    return _parallel().SweepExecutor(jobs=jobs, seed=seed, cache=cache_dir)


def _parallel():
    """:mod:`repro.parallel` with its task module, resolved lazily: the
    task module imports this one, so it cannot be a module-level import
    here."""
    import repro.parallel.tasks

    return repro.parallel


def alone_base_runs(
    names: Sequence[str],
    defaults: ExperimentDefaults,
    runner,
    labels: Sequence[str],
) -> List[Dict]:
    """Sweep stage 0: each program alone, unshaped, at its mix slot.

    One task family for every sweep's baselines, so a program's alone
    run is simulated once per cache no matter which sweep asks first.
    """
    tasks = _parallel().tasks
    return runner.map(
        tasks.alone_base_task,
        [
            tasks.encode_point([name], defaults, slots=[slot])
            for slot, name in enumerate(names)
        ],
        kind="alone-base", labels=list(labels),
    )


def _config_ladder(benchmark: str, defaults: ExperimentDefaults,
                   scales: Sequence[float], runner) -> List[Dict[str, object]]:
    """The scored config ladder Figure 2 and the detect suite both climb.

    Profiles ``benchmark`` alone (sweep stage 0), the only serial
    step; the shaped rungs are the CS anchor (constant interval near
    the program's average rate), then a predetermined staircase at each
    bandwidth ``scale``, and the base run is scored as the
    ``no-shaping`` anchor in the same map, as its last shard.  Returns
    rows ``[no-shaping, cs, camo-x…]``, each carrying ``label``,
    ``ipc``, the zoo's six scores, ``segments``, ``report_digest`` (the
    zoo report's), ``digest`` (the run's), ``requested_rate`` (the
    rung's events/cycle) and ``granted_rate`` (its credits per cycle;
    null on ``no-shaping``).  Rungs granted equal credits share one
    :func:`~repro.parallel.tasks.tradeoff_point_task`: one simulation,
    one cache entry, labelled and digested here.

    Every rung's classifiers test the observed stream against that
    rung's *own* target distribution.  The anchor is scored by the
    same estimator configuration as every shaped rung, so one curve
    never mixes estimators: its observed stream is the intrinsic one,
    tested against the reference staircase at the program's own rate
    — the distribution the shaped rungs move toward.
    """
    tasks = _parallel().tasks
    spec = replace(defaults.spec, replenish_period=LADDER_REPLENISH_PERIOD)
    [base] = alone_base_runs(
        [benchmark], defaults, runner, [f"{benchmark}:base"]
    )
    base_rate = len(base["gaps"]) / max(1, base["cycles_run"])
    cs_interval = constant_rate_interval_for(spec, 1.0 / max(base_rate, 1e-9))
    rungs = [("cs", constant_rate_config(spec, cs_interval), base_rate)] + [
        (f"camo-x{scale}", staircase_config(spec, base_rate * scale),
         base_rate * scale)
        for scale in scales
    ]
    configs = list(dict.fromkeys(config for _, config, _ in rungs))
    payloads = [
        tasks.encode_point(
            [benchmark], defaults, spec=spec,
            request_plans={0: RequestShapingPlan(config, spec)},
            window_cycles=LADDER_WINDOW_CYCLES,
            detect_seed=defaults.seed,
        )
        for config in configs
    ]
    # The no-shaping anchor rides along as the last shard: scoring it
    # is the only other work the ladder has, and as a shard it overlaps
    # the simulations and replays from the cache.
    payloads.append(tasks.encode_point(
        [benchmark], defaults, spec=spec,
        window_cycles=LADDER_WINDOW_CYCLES, detect_seed=defaults.seed,
        anchor={
            "gaps": base["gaps"], "cycles_run": base["cycles_run"],
            "target": list(staircase_config(spec, base_rate).credits),
        },
    ))
    *shaped, anchor = runner.map(
        tasks.tradeoff_point_task, payloads, kind="tradeoff-point",
        labels=[
            ",".join(label for label, c, _ in rungs if c == config)
            for config in configs
        ] + ["no-shaping"],
    )
    points = dict(zip(configs, shaped))
    scored = [
        (DetectReport(label="no-shaping", **anchor["zoo"]), base,
         base_rate, None)
    ] + [
        (DetectReport(label=label, **points[config]["zoo"]), points[config],
         requested, config.total_credits / LADDER_REPLENISH_PERIOD)
        for label, config, requested in rungs
    ]
    return [
        {
            "label": zoo.label, "ipc": run["ipc"], **zoo.score_row(),
            "segments": zoo.segments, "report_digest": zoo.digest(),
            "digest": run["digest"], "requested_rate": requested,
            "granted_rate": granted,
        }
        for zoo, run, requested, granted in scored
    ]


def tradeoff_sweep(
    benchmark: str = "apache",
    defaults: ExperimentDefaults = ExperimentDefaults(),
    scales: Sequence[float] = (0.6, 0.8, 1.0, 1.4, 2.0),
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    executor=None,
) -> List[Dict[str, float]]:
    """Sweep Camouflage configs between CS and no shaping (Fig 2).

    Each point reports the program's IPC and the windowed MI (bias
    corrected, multi-period windows) between its intrinsic request
    stream and the observed (shaped + fake) bus stream.  The sweep uses
    *predetermined* staircase distributions at growing bandwidth
    scales: tight budgets sit near the CS corner (secure, slow), loose
    budgets approach no-shaping performance while leaking more — the
    trade-off space Figure 2 sketches.

    The points are :func:`_config_ladder`'s rows, CS first, without
    the zoo report's ``segments`` / ``report_digest``; each distinct
    credit configuration is one independent simulation, fanned out
    through ``jobs``/``cache_dir``/``executor`` (see docs/parallel.md).
    """
    runner = _resolve_executor(executor, jobs, cache_dir, defaults.seed)
    no_shaping, cs, *staircases = _config_ladder(
        benchmark, defaults, scales, runner
    )
    return [
        {k: v for k, v in row.items()
         if k not in ("segments", "report_digest")}
        for row in [cs, no_shaping, *staircases]
    ]


def detect_suite(
    benchmark: str = "apache",
    defaults: ExperimentDefaults = ExperimentDefaults(),
    scales: Sequence[float] = (0.8, 1.2),
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    executor=None,
) -> Dict[str, object]:
    """The attacker zoo over the Figure 2 config ladder (``repro detect``).

    Scores :func:`_config_ladder`'s rungs against the detectability
    lab (:mod:`repro.security.detect`): the unshaped stream (the
    covert-channel worst case — every attacker should win), the CS
    anchor, and Camouflage staircases at each bandwidth ``scale``.

    The returned document — rows of label / ipc / mi / auc / xcorr /
    spectral / rates plus per-rung report digests and one suite digest
    — is a pure function of ``(benchmark, defaults, scales)``:
    byte-identical across repeated runs and across ``jobs`` values.
    """
    runner = _resolve_executor(executor, jobs, cache_dir, defaults.seed)
    doc: Dict[str, object] = {
        "benchmark": benchmark,
        "window_cycles": LADDER_WINDOW_CYCLES,
        "seed": defaults.seed,
        "rows": _config_ladder(benchmark, defaults, scales, runner),
    }
    doc["digest"] = canonical_json_digest(doc)
    return doc


def scalability_experiment(
    benchmark: str = "gcc",
    defaults: ExperimentDefaults = ExperimentDefaults(),
    core_counts: Sequence[int] = (2, 4, 8),
    tp_turn_length: int = 128,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    executor=None,
) -> Dict[int, Dict[str, float]]:
    """Section II-B's scalability claim: TP vs Camouflage vs core count.

    Temporal partitioning gives each of N mutually distrusting domains
    1/N of the schedule ("if one hundred processes ... each of them
    only receives 1/100 of the memory bandwidth"), so its slowdown
    grows with N.  Camouflage shapes each core independently; a core's
    slowdown depends on the *traffic*, not on how many security
    domains exist.

    Returns per-core-count average slowdowns for FR-FCFS (contention
    only), TP, and per-core ReqC Camouflage.  The per-(core-count,
    baseline) mixes are independent simulations and fan out through
    ``jobs``/``cache_dir``/``executor`` (see docs/parallel.md).
    """
    tasks = _parallel().tasks
    runner = _resolve_executor(executor, jobs, cache_dir, defaults.seed)
    [base] = alone_base_runs(
        [benchmark], defaults, runner, [f"{benchmark}:base"]
    )
    base_rate = len(base["gaps"]) / max(1, base["cycles_run"])
    camo_plan = RequestShapingPlan(
        config=staircase_config(defaults.spec, base_rate * 1.15),
        spec=defaults.spec,
    )

    payloads, labels = [], []
    for n in core_counts:
        encode = partial(
            tasks.encode_point, [benchmark] * n, defaults,
            alone_ipcs=[base["ipc"]] * n,
        )
        payloads.append(encode())
        labels.append(f"frfcfs:n{n}")
        payloads.append(
            encode(
                scheduler="tp",
                scheduler_kwargs={"turn_length": tp_turn_length},
            )
        )
        labels.append(f"tp:n{n}")
        payloads.append(
            encode(
                request_plans={core: camo_plan for core in range(n)},
                # Zoo-score core 0's shaped stream in every Camouflage
                # mix: detectability must stay flat as domains scale,
                # or per-core shaping only looks scalable.
                detect={"core": 0, "seed": defaults.seed},
            )
        )
        labels.append(f"camo:n{n}")

    rows = runner.map(
        tasks.mix_slowdown_task, payloads, kind="mix-slowdown", labels=labels
    )
    results: Dict[int, Dict[str, float]] = {}
    for position, n in enumerate(core_counts):
        frfcfs, tp, camo = rows[3 * position: 3 * position + 3]
        results[n] = {
            "frfcfs": frfcfs["slowdown"],
            "tp": tp["slowdown"],
            "camouflage": camo["slowdown"],
            "camouflage_mi": camo["mi"],
            "camouflage_auc": camo["auc"],
            "camouflage_xcorr": camo["xcorr"],
        }
    return results


def headline_speedups(
    defaults: ExperimentDefaults = ExperimentDefaults(),
    benchmarks: Optional[Sequence[str]] = None,
    adversaries: Sequence[str] = ("astar", "gcc", "apache"),
) -> Dict[str, float]:
    """The abstract's headline: Camouflage vs CS / TP / FS throughput.

    Aggregates the Fig 12 sweep (vs CS) and a Fig 13 sweep over
    ``adversaries`` × {astar, mcf} victim contexts (vs TP / FS) into
    geometric-mean factors.
    """
    benchmarks = list(benchmarks or BENCHMARK_NAMES)
    vs_cs = geometric_mean(
        [reqc_speedup_experiment(b, defaults)["speedup"] for b in benchmarks]
    )
    ratios_tp, ratios_fs = [], []
    for victim in ("astar", "mcf"):
        for adversary in adversaries:
            result = bdc_comparison(adversary, victim, defaults)
            ratios_tp.append(
                result["tp_slowdown"] / result["camouflage_slowdown"]
            )
            ratios_fs.append(
                result["fs_slowdown"] / result["camouflage_slowdown"]
            )
    return {
        "vs_constant_shaper": vs_cs,
        "vs_temporal_partitioning": geometric_mean(ratios_tp),
        "vs_fixed_service": geometric_mean(ratios_fs),
    }
