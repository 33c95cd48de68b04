"""Command-line interface: run paper experiments without writing code.

Usage::

    python -m repro.cli list
    python -m repro.cli fig11 [--scale 0.5]
    python -m repro.cli fig12 --benchmark mcf
    python -m repro.cli covert --key 0x2AAAAAAA --bits 32 [--no-shaping]
    python -m repro.cli mi
    python -m repro.cli tradeoff --benchmark apache --jobs 4
    python -m repro.cli fig13 --adversary gcc --victim mcf
    python -m repro.cli run --trace-out trace.json --metrics-out m.txt
    python -m repro.cli sweep tradeoff --jobs 4 --cache-dir .repro-cache
    python -m repro.cli cache ls --cache-dir .repro-cache
    python -m repro.cli lint [paths...] [--format json]

Each subcommand runs the corresponding experiment driver from
:mod:`repro.analysis.experiments` and prints the same rows/series the
paper's figure reports.  ``--scale`` shrinks the default run length
for quick looks.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import List, Optional

from repro.analysis.calibration import calibrate_suite, check_substitution_claims
from repro.analysis.experiments import (
    ExperimentDefaults,
    bdc_comparison,
    covert_channel_experiment,
    detect_suite,
    measure_mi_suite,
    reqc_speedup_experiment,
    run_mix,
    scalability_experiment,
    tradeoff_sweep,
)
from repro.analysis.format import ascii_series, format_distribution, format_table
from repro.analysis.sweeps import (
    fs_interval_sweep,
    noc_latency_sweep,
    tp_turn_length_sweep,
)
from repro.common.errors import SnapshotError
from repro.common.util import canonical_doc
from repro.core.bins import BinConfiguration
from repro.lint import runner as lint_runner
from repro.obs import ObservabilityConfig
from repro.obs.export import render_openmetrics
from repro.parallel import ResultCache, SweepExecutor
from repro.resilience import ResilienceConfig, run_scenario, scenario_names
from repro.resilience.snapshot import (
    read_snapshot_info,
    restore_system,
    snapshot_system,
)
from repro.sim.columnar import DEFAULT_ENGINE
from repro.sim.stats import report_digest
from repro.sim.system import RequestShapingPlan, ResponseShapingPlan, SystemBuilder
from repro.workloads.spec import BENCHMARK_NAMES, make_trace

_EXPERIMENTS = {
    "fig11": "shape a benchmark's requests onto the DESIRED staircase",
    "fig12": "ReqC speedup over a constant-rate shaper",
    "fig13": "BDC vs TP vs FS program average slowdown",
    "covert": "Algorithm-1 covert channel attack (Figs 14/15)",
    "mi": "mutual-information table (section IV-B2)",
    "tradeoff": "security/performance sweep (Figure 2)",
    "detect": "attacker-zoo detectability lab (MI / AUC / XCorr / spectral)",
    "calibrate": "measured workload characteristics (trace substitution)",
    "run": "run the observed BDC-shaped mix: trace, profile, metrics, "
           "checkpoints and a stall watchdog",
    "resume": "restore a checkpoint and continue the run bit-identically",
    "faults": "run a fault-injection scenario (repro.resilience harness)",
    "sweep": "run a parameter sweep across --jobs simulations in flight",
    "cache": "inspect/prune/clear the sweep result cache",
}

#: Sweeps runnable via ``repro sweep <name>``: name -> (driver, default
#: ``--benchmark``; ``None`` when the driver takes no benchmark).  Every
#: driver accepts ``defaults`` plus ``executor`` or ``jobs``/``cache_dir``;
#: results print as canonical JSON so ``--jobs 1`` and ``--jobs N``
#: outputs can be byte-compared.  ``repro tradeoff`` / ``repro detect``
#: are the first two rows with their own renderers.
_SWEEPS = {
    "tradeoff": (tradeoff_sweep, "apache"),
    "detect": (detect_suite, "apache"),
    "scalability": (scalability_experiment, "gcc"),
    "tp-turn": (tp_turn_length_sweep, None),
    "fs-interval": (fs_interval_sweep, None),
    "noc-latency": (noc_latency_sweep, "mcf"),
}


#: The fig11 DESIRED staircase, also the demo mix's shaping target.
_DESIRED = BinConfiguration((10, 9, 8, 7, 6, 5, 4, 3, 2, 1))


def _defaults(args) -> ExperimentDefaults:
    return ExperimentDefaults().scaled(args.scale)


def _canonical_text(doc) -> str:
    """Canonical JSON: repeated runs and different ``--jobs`` values
    must byte-compare (the CI parallel-smoke / detect-smoke checks)."""
    return json.dumps(canonical_doc(doc), sort_keys=True, indent=2)


def _run_sweep(name: str, args, **fanout):
    """Run one row of the sweep table at ``args``' scale and benchmark."""
    driver, default_benchmark = _SWEEPS[name]
    if default_benchmark is not None:
        fanout["benchmark"] = args.benchmark or default_benchmark
    return driver(defaults=_defaults(args), **fanout)


def _cmd_list(_args) -> int:
    print(format_table(
        ["experiment", "description"],
        [[name, desc] for name, desc in _EXPERIMENTS.items()],
    ))
    return 0


def _cmd_fig11(args) -> int:
    defaults = _defaults(args)
    report = run_mix(
        [args.benchmark], defaults,
        request_plans={
            0: RequestShapingPlan(
                config=_DESIRED, spec=defaults.spec, strict_binning=True
            )
        },
    )
    stats = report.core(0)
    print(f"benchmark: {args.benchmark}")
    print("intrinsic:",
          format_distribution(stats.request_intrinsic.counts))
    print("shaped:   ",
          format_distribution(stats.request_shaped.counts))
    print("DESIRED:  ", format_distribution(_DESIRED.credits))
    tv = 0.5 * sum(
        abs(a - b)
        for a, b in zip(stats.request_shaped.frequencies(),
                        _DESIRED.normalized())
    )
    print(f"TV distance to DESIRED: {tv:.4f}")
    return 0


def _cmd_fig12(args) -> int:
    benchmarks = [args.benchmark] if args.benchmark else list(BENCHMARK_NAMES)
    rows = []
    for bench in benchmarks:
        result = reqc_speedup_experiment(bench, _defaults(args))
        rows.append([bench, result["cs_ipc"], result["camouflage_ipc"],
                     result["speedup"]])
    print(format_table(
        ["benchmark", "cs_ipc", "camouflage_ipc", "speedup"], rows
    ))
    return 0


def _cmd_fig13(args) -> int:
    result = bdc_comparison(args.adversary, args.victim, _defaults(args),
                            tune=args.tune)
    print(format_table(
        ["technique", "avg slowdown"],
        [
            ["temporal partitioning", result["tp_slowdown"]],
            ["fixed service + banks", result["fs_slowdown"]],
            ["camouflage (BDC)", result["camouflage_slowdown"]],
        ],
    ))
    return 0


def _cmd_covert(args) -> int:
    key = int(args.key, 0)
    result = covert_channel_experiment(
        key, bits=args.bits, shaped=not args.no_shaping,
        pulse_cycles=args.pulse, defaults=_defaults(args),
    )
    counts = [float(c) for c in result["window_counts"]]
    print(f"key: {key:#x} ({args.bits} bits), "
          f"shaping: {'off' if args.no_shaping else 'on'}")
    print("traffic/pulse:", ascii_series(counts, width=args.bits))
    print("key bits:     ", "".join(map(str, result["key_bits"])))
    print("decoded bits: ", "".join(map(str, result["decoded_bits"])))
    print(f"bit error rate: {result['bit_error_rate']:.3f} "
          "(0 = fully leaked, 0.5 = chance)")
    return 0


def _cmd_mi(args) -> int:
    results = measure_mi_suite(defaults=_defaults(args))
    rows = [
        [name, values["paired"], values["windowed"]]
        for name, values in results.items()
    ]
    print(format_table(
        ["scheme", "paired_mi_bits", "windowed_mi_bits"], rows, precision=4
    ))
    return 0


def _cmd_calibrate(args) -> int:
    benchmarks = [args.benchmark] if args.benchmark else None
    calibrations = calibrate_suite(_defaults(args), benchmarks)
    rows = [
        [c.name, c.ipc, c.llc_mpki, c.requests_per_kilocycle,
         c.row_hit_rate, c.burstiness]
        for c in sorted(calibrations.values(),
                        key=lambda c: -c.requests_per_kilocycle)
    ]
    print(format_table(
        ["benchmark", "ipc", "llc_mpki", "req/kcycle", "row_hit_rate",
         "burstiness"],
        rows,
    ))
    if benchmarks is None:
        print()
        claims = check_substitution_claims(calibrations)
        print(format_table(
            ["substitution claim", "held"],
            [[claim, held] for claim, held in claims.items()],
        ))
    return 0


def _cmd_tradeoff(args) -> int:
    points = _run_sweep(
        "tradeoff", args, jobs=args.jobs, cache_dir=args.cache_dir
    )
    print(format_table(
        ["config", "ipc", "mi_bits", "auc", "xcorr", "spectral", "digest"],
        [
            [p["label"], p["ipc"], p["mi"], p["auc"], p["xcorr"],
             p["spectral"], p["digest"]]
            for p in points
        ],
    ))
    return 0


def _cmd_detect(args) -> int:
    doc = _run_sweep(
        "detect", args, jobs=args.jobs, cache_dir=args.cache_dir
    )
    # Canonical JSON on stdout; chatter stays on stderr.
    text = _canonical_text(doc)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"detect report written to {args.out}", file=sys.stderr)
    return 0


def _cmd_sweep(args) -> int:
    executor = SweepExecutor(
        jobs=args.jobs, seed=_defaults(args).seed, cache=args.cache_dir,
    )
    print(_canonical_text(_run_sweep(args.name, args, executor=executor)))
    print(
        f"tasks: run={executor.tasks_run} cached={executor.tasks_cached} "
        f"retries={executor.retries}",
        file=sys.stderr,
    )
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            fh.write(render_openmetrics(executor.merged_registry()))
        print(f"merged exposition written to {args.metrics_out}",
              file=sys.stderr)
    return 0


def _cmd_cache(args) -> int:
    if (args.verb == "prune" and args.keep is None
            and args.older_than_days is None):
        args.usage_error("prune needs --keep and/or --older-than-days")
    cache = ResultCache(args.cache_dir)
    if args.verb == "ls":
        entries = cache.entries()
        print(format_table(
            ["digest", "kind", "bytes"],
            [[e.digest, e.kind, e.size_bytes] for e in entries],
        ))
        print(f"{len(entries)} entr{'y' if len(entries) == 1 else 'ies'} "
              f"in {args.cache_dir}")
        return 0
    if args.verb == "prune":
        removed = cache.prune(
            keep=args.keep, older_than_days=args.older_than_days
        )
    else:  # clear
        removed = cache.clear()
    print(f"removed {removed} entr{'y' if removed == 1 else 'ies'} "
          f"from {args.cache_dir}")
    return 0


def _cmd_run(args) -> int:
    """The observed mix: the fig11 DESIRED staircase shaping the chosen
    benchmark (ReqC and RespC) against an unshaped co-runner, with the
    tracer, sampler, shaping monitor and engine profiler attached and
    the checkpoint/watchdog layer installed.  Stdout is the same under
    every engine (CI ``cmp``s it); files are written only when asked."""
    defaults = _defaults(args)
    builder = SystemBuilder(seed=defaults.seed)
    builder.with_observability(ObservabilityConfig(
        trace=True, trace_limit=args.limit, sample_interval=1024,
        monitor=True, profile=True,
    ))
    builder.with_resilience(ResilienceConfig(
        checkpoint_every=args.checkpoint_every,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_keep=args.checkpoint_keep,
        watchdog_cycles=args.watchdog,
        watchdog_dump_path=args.watchdog_dump or "",
    ))
    builder.add_core(
        make_trace(args.benchmark, num_accesses=defaults.accesses,
                   seed=defaults.seed),
        request_shaping=RequestShapingPlan(config=_DESIRED,
                                           spec=defaults.spec),
        response_shaping=ResponseShapingPlan(config=_DESIRED,
                                             spec=defaults.spec),
    )
    builder.add_core(
        make_trace(args.corunner, num_accesses=defaults.accesses,
                   seed=defaults.seed + 1, base_address=1 << 26),
    )
    system = builder.build()
    cycles = args.cycles or defaults.cycles
    try:
        report = system.run(cycles, stop_when_done=False, engine=args.engine)
    except Exception as error:
        print(f"run aborted: {type(error).__name__}: {error}")
        dump_path = getattr(error, "dump_path", "")
        if dump_path:
            print(f"diagnostic dump written to {dump_path}")
        return 1
    res = system.resilience
    if res.checkpoints_taken:
        print(f"checkpoints: {res.checkpoints_taken} taken, "
              f"latest {res.last_checkpoint_path}")
    if args.snapshot_out:
        snapshot_system(system, args.snapshot_out)
        print(f"final snapshot written to {args.snapshot_out}")
    obs = system.observability
    if args.trace_out:
        obs.tracer.write_chrome(args.trace_out)
        print(f"Chrome trace written to {args.trace_out}", file=sys.stderr)
    if args.profile_out:
        rollup = obs.profiler.rollup(include_wall=True, monitor=obs.monitor)
        with open(args.profile_out, "w", encoding="utf-8") as fh:
            json.dump(rollup, fh, indent=2, sort_keys=True)
        print(f"profiler rollup written to {args.profile_out}",
              file=sys.stderr)
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            fh.write(obs.render_exposition(at_cycle=system.current_cycle))
        print(f"OpenMetrics exposition written to {args.metrics_out}",
              file=sys.stderr)
    print(f"stopped at cycle {system.current_cycle}")
    print(f"report digest: {report_digest(report)}")
    return 0


def _cmd_resume(args) -> int:
    try:
        info = read_snapshot_info(args.snapshot)
        print(f"snapshot: kind={info.get('kind')} cycle={info.get('cycle')} "
              f"cores={info.get('num_cores')}")
        if (args.cycles > 0) == (args.until > 0):
            print("pass exactly one of --cycles (additional) or --until "
                  "(absolute target cycle)")
            return 2
        system = restore_system(args.snapshot)
    except SnapshotError as error:
        # A bad file is a usage error, like lint's missing path.
        print(f"error: {error}", file=sys.stderr)
        return 2
    remaining = args.cycles if args.cycles > 0 else args.until - system.current_cycle
    if remaining <= 0:
        print(f"nothing to do: snapshot already at cycle "
              f"{system.current_cycle} >= --until {args.until}")
        return 2
    try:
        report = system.run(remaining, stop_when_done=False,
                            engine=args.engine)
    except Exception as error:
        print(f"resumed run aborted: {type(error).__name__}: {error}")
        return 1
    print(f"stopped at cycle {system.current_cycle}")
    print(f"report digest: {report_digest(report)}")
    return 0


def _cmd_faults(args) -> int:
    result = run_scenario(args.scenario, cycles=args.cycles,
                          engine=args.engine)
    print(json.dumps(result, indent=2, sort_keys=True, default=str))
    return 0


def _engine_parent() -> argparse.ArgumentParser:
    """``--engine`` for every verb that runs a system: one default
    (the skipper) everywhere, ``cycle`` being the oracle to name when
    checking it."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--engine", default=DEFAULT_ENGINE,
                        choices=("cycle", "columnar"))
    return parent


def _at_least(kind, minimum, strict=False):
    """An argparse ``type=``: ``kind(text)``, refused below ``minimum``
    (or at it, when ``strict``) or when not finite, as a usage error
    (exit 2) rather than a traceback later."""
    def parse(text: str):
        value = kind(text)
        if not math.isfinite(value) or value < minimum or (
            strict and value == minimum
        ):
            raise argparse.ArgumentTypeError(
                f"must be {'>' if strict else '>='} {minimum}, got {text}"
            )
        return value

    parse.__name__ = kind.__name__  # argparse's "invalid int value"
    return parse


def _fanout_parent(benchmark: Optional[str]) -> argparse.ArgumentParser:
    """``--benchmark/--jobs/--cache-dir`` for the sweep-table verbs."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--benchmark", default=benchmark,
                        choices=BENCHMARK_NAMES,
                        help="the swept program (default: the sweep's own)")
    parent.add_argument("--jobs", type=_at_least(int, 1), default=1,
                        help="simulations in flight: this process plus "
                             "N-1 processes forked for each map (1, the "
                             "reference, runs every point in this process)")
    parent.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="content-addressed result cache directory")
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Camouflage (HPCA 2017) reproduction experiments",
    )
    parser.add_argument(
        "--scale", type=_at_least(float, 0.0, strict=True), default=1.0,
        help="scale the run length (0.25 = quick look)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def verb(name, handler, help=None, **kwargs):
        """One verb: its parser, its help line and its handler."""
        p = sub.add_parser(name, help=help or _EXPERIMENTS[name], **kwargs)
        p.set_defaults(handler=handler)
        return p

    verb("list", _cmd_list, help="list available experiments")

    p = verb("fig11", _cmd_fig11)
    p.add_argument("--benchmark", default="gcc", choices=BENCHMARK_NAMES)

    p = verb("fig12", _cmd_fig12)
    p.add_argument("--benchmark", default=None, choices=BENCHMARK_NAMES)

    p = verb("fig13", _cmd_fig13)
    p.add_argument("--adversary", default="gcc", choices=BENCHMARK_NAMES)
    p.add_argument("--victim", default="mcf", choices=("astar", "mcf"))
    p.add_argument("--tune", action="store_true",
                   help="run the online GA CONFIG phase first")

    p = verb("covert", _cmd_covert)
    p.add_argument("--key", default="0x2AAAAAAA")
    p.add_argument("--bits", type=_at_least(int, 1), default=32)
    p.add_argument("--pulse", type=_at_least(int, 1), default=3000)
    p.add_argument("--no-shaping", action="store_true")

    verb("mi", _cmd_mi)

    verb("tradeoff", _cmd_tradeoff,
         parents=[_fanout_parent(_SWEEPS["tradeoff"][1])])

    p = verb("detect", _cmd_detect,
             parents=[_fanout_parent(_SWEEPS["detect"][1])])
    p.add_argument("--out", default=None, metavar="PATH",
                   help="also write the canonical DetectReport JSON here")

    p = verb("sweep", _cmd_sweep, parents=[_fanout_parent(None)])
    p.add_argument("name", choices=tuple(_SWEEPS),
                   help="which sweep to run")
    p.add_argument("--metrics-out", default=None, metavar="PATH",
                   help="write the merged OpenMetrics exposition here")

    p = verb("cache", _cmd_cache)
    p.set_defaults(usage_error=p.error)
    p.add_argument("verb", choices=("ls", "prune", "clear"))
    p.add_argument("--cache-dir", required=True, metavar="DIR")
    p.add_argument("--keep", type=_at_least(int, 0), default=None,
                   metavar="N",
                   help="prune: retain only the newest N entries")
    p.add_argument("--older-than-days", type=_at_least(float, 0.0),
                   default=None, metavar="DAYS",
                   help="prune: remove entries older than DAYS")

    p = verb("calibrate", _cmd_calibrate)
    p.add_argument("--benchmark", default=None, choices=BENCHMARK_NAMES)

    p = verb("run", _cmd_run, parents=[_engine_parent()])
    p.add_argument("--benchmark", default="gcc", choices=BENCHMARK_NAMES)
    p.add_argument("--corunner", default="mcf", choices=BENCHMARK_NAMES)
    p.add_argument("--cycles", type=_at_least(int, 0), default=0,
                   help="run length (default: the experiment default)")
    p.add_argument("--checkpoint-every", type=_at_least(int, 0), default=0,
                   metavar="N",
                   help="snapshot the whole system every N cycles")
    p.add_argument("--checkpoint-dir", default="checkpoints",
                   help="directory for periodic snapshots")
    p.add_argument("--checkpoint-keep", type=_at_least(int, 1), default=3,
                   help="most-recent snapshots to retain")
    p.add_argument("--watchdog", type=_at_least(int, 0), default=None,
                   metavar="CYCLES",
                   help="stall budget before aborting (0 disables)")
    p.add_argument("--watchdog-dump", default=None, metavar="PATH",
                   help="JSON diagnostic dump path on watchdog trip")
    p.add_argument("--limit", type=_at_least(int, 1), default=65536,
                   help="event ring capacity")
    p.add_argument("--snapshot-out", default=None, metavar="PATH",
                   help="write a final snapshot when the run finishes")
    p.add_argument("--trace-out", default=None, metavar="PATH",
                   help="write the Chrome trace-event JSON here")
    p.add_argument("--profile-out", default=None, metavar="PATH",
                   help="write the engine profiler's rollup JSON here")
    p.add_argument("--metrics-out", default=None, metavar="PATH",
                   help="write the OpenMetrics exposition here")

    p = verb("resume", _cmd_resume, parents=[_engine_parent()])
    p.add_argument("snapshot", help="snapshot file written by 'repro run'")
    p.add_argument("--cycles", type=int, default=0,
                   help="additional cycles to run")
    p.add_argument("--until", type=int, default=0, metavar="CYCLE",
                   help="absolute cycle to run to (for digest comparison "
                        "against an uninterrupted 'repro run')")

    p = verb("faults", _cmd_faults, parents=[_engine_parent()])
    p.add_argument("--scenario", required=True, choices=scenario_names())
    p.add_argument("--cycles", type=_at_least(int, 0), default=0,
                   help="override the scenario's default run length")

    # One lint front end: the subcommand *is* repro.lint's own parser
    # (flags, defaults and -h included) and its handler the same run().
    verb("lint", lint_runner.run,
         help="run the repro-lint checkers",
         parents=[lint_runner.build_arg_parser()], add_help=False)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
