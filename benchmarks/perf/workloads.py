"""The five workloads, and the child process that measures one of them.

Each workload is a closed loop of one operation at a time.  A workload
object answers five questions, all through :mod:`repro`'s public
functions:

``imports()``   import what the operation needs (part of ``setup_s``)
``inputs()``    make the seeded inputs (part of ``setup_s``)
``stage()``     build what one operation consumes (a warm-up
                operation and the first call are part of ``setup_s``;
                later calls are untimed)
``execute()``   the timed operation
``outcome()``   digest of the operation's output (untimed)

Sizes are fixed constants: ``--seconds`` decides how many operations a
run times, never how large one is.  They are smaller than the runs a
user would make because the whole benchmark (114 runs) has a time cap;
every constant is recorded in each output document.
"""

from __future__ import annotations

import contextlib
import cProfile
import gc
import io
import json
import os
import resource
import tempfile
import time
import traceback
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import tracing

#: Engine the three simulator workloads time; ``cycle`` is the oracle
#: their prefix check compares it with.
ENGINE = "columnar"
ORACLE_ENGINE = "cycle"
ORACLE_PREFIX_CYCLES = 30_000

#: Set-up ends with one untimed operation of this share of the full
#: length (in-process, jobs=1), so that lazy imports and first-call
#: costs are paid before timing starts, as the first of a user's many
#: runs would pay them.  It also keeps set-up time from being import
#: time alone, which on this VM swings by a quarter between quiet and
#: busy minutes.
WARMUP_FRACTION = 0.1

#: The profile pass runs this share of an operation's length: cProfile
#: slows model code about 2.5x and the pass only has to rank layers.
PROFILE_FRACTION = 0.25


@dataclass
class Outcome:
    """What one operation produced, reduced to a comparable digest."""

    digest: str
    #: Did a core run out of trace?  ``None`` where the question does
    #: not apply.  A drained core idles, which is not the workload.
    drained: Optional[bool] = None


def _timed(workload: "Workload", staged: Any) -> Tuple[Any, float]:
    """One operation's result and its host seconds."""
    start = time.perf_counter()
    result = workload.execute(staged)
    return result, time.perf_counter() - start


class Workload:
    """What the child process asks of a workload; see the module
    docstring.  ``stage`` takes the same arguments everywhere so that
    the traced passes can shorten any operation (``fraction``) and keep
    it in this process (``jobs=1``); a workload ignores what it has no
    use for."""

    name: str
    why: str
    #: ``None``: as many operations as fit the child's time budget.
    ops_per_child: Optional[int] = None

    def sizes(self, scale: float) -> Dict[str, Any]:
        raise NotImplementedError

    def imports(self) -> None:
        raise NotImplementedError

    def inputs(self, seed: int, sizes: Dict[str, Any]) -> Any:
        return None

    def stage(self, inputs: Any, seed: int, sizes: Dict[str, Any],
              fraction: float = 1.0, jobs: Optional[int] = None,
              cache: Optional[str] = None) -> Any:
        raise NotImplementedError

    def execute(self, staged: Any) -> Any:
        raise NotImplementedError

    def outcome(self, result: Any) -> Outcome:
        raise NotImplementedError

    def checks(self, inputs: Any, seed: int,
               sizes: Dict[str, Any]) -> List[Tuple[str, bool]]:
        """Workload-specific output checks, as (label, passed)."""
        return []

    def parallel_extras(self, seed: int, sizes: Dict[str, Any],
                        cold_wall_s: float, digest: str,
                        scratch_dir: str) -> Optional[Dict[str, Any]]:
        """Process-pool measurements of the traced run, if any."""
        return None


# ---------------------------------------------------------------------------
# simulator workloads: one System.run on the columnar engine
# ---------------------------------------------------------------------------


class SimWorkload(Workload):
    """``SystemBuilder`` + ``System.run`` on seeded synthetic traces."""

    def __init__(self, name: str, why: str, programs: Tuple[str, ...],
                 accesses: int, cycles: int, shaping: Optional[str],
                 stop_when_done: bool) -> None:
        self.name = name
        self.why = why
        self._programs = programs
        self._accesses = accesses
        self._cycles = cycles
        self._shaping = shaping
        self._stop_when_done = stop_when_done

    def sizes(self, scale: float) -> Dict[str, Any]:
        return {
            "programs": list(self._programs),
            "accesses_per_program": max(200, int(self._accesses * scale)),
            "cycles": max(2_000, int(self._cycles * scale)),
            "shaping": self._shaping or "none",
            "engine": ENGINE,
            "stop_when_done": self._stop_when_done,
        }

    def imports(self) -> None:
        import repro  # noqa: F401
        import repro.sim.columnar  # noqa: F401
        import repro.workloads  # noqa: F401

    def inputs(self, seed: int, sizes: Dict[str, Any]) -> Any:
        from repro.workloads import make_trace

        return [
            make_trace(name, sizes["accesses_per_program"], seed=seed + slot,
                       base_address=slot << 26)
            for slot, name in enumerate(sizes["programs"])
        ]

    def _plans(self) -> Dict[str, Any]:
        from repro import (
            BinSpec, RequestShapingPlan, ResponseShapingPlan,
            constant_rate_config, uniform_config,
        )

        if self._shaping is None:
            return {}
        config = (
            uniform_config(BinSpec(), 2) if self._shaping == "uniform2"
            else constant_rate_config(BinSpec(), 512)
        )
        return {
            "request_shaping": RequestShapingPlan(config),
            "response_shaping": ResponseShapingPlan(config),
        }

    def stage(self, inputs: Any, seed: int, sizes: Dict[str, Any],
              fraction: float = 1.0, jobs: Optional[int] = None,
              cache: Optional[str] = None) -> Any:
        from repro import SystemBuilder

        builder = SystemBuilder(seed=seed)
        for trace in inputs:
            builder.add_core(trace, **self._plans())
        return builder.build(), max(1, int(sizes["cycles"] * fraction))

    def execute(self, staged: Any, engine: str = ENGINE) -> Any:
        system, cycles = staged
        return system.run(
            cycles, stop_when_done=self._stop_when_done, engine=engine
        )

    def outcome(self, report: Any) -> Outcome:
        from repro.sim.stats import report_digest

        return Outcome(
            digest=report_digest(report),
            drained=any(c.finish_cycle is not None for c in report.cores),
        )

    def checks(self, inputs: Any, seed: int,
               sizes: Dict[str, Any]) -> List[Tuple[str, bool]]:
        """The timed engine against the ``cycle`` oracle on a prefix."""
        fraction = min(1.0, ORACLE_PREFIX_CYCLES / sizes["cycles"])
        digests = [
            self.outcome(
                self.execute(
                    self.stage(inputs, seed, sizes, fraction=fraction),
                    engine=engine,
                )
            ).digest
            for engine in (ORACLE_ENGINE, ENGINE)
        ]
        return [("oracle_prefix_digest", digests[0] == digests[1])]


# ---------------------------------------------------------------------------
# sweep_fig2: `repro --scale N sweep tradeoff --jobs 2`, seed threaded
# ---------------------------------------------------------------------------


class SweepWorkload(Workload):
    name = "sweep_fig2"
    why = (
        "Fig 2 trade-off sweep through the process pool (jobs=2, cold pool): "
        "the only workload where parallel, security and analysis do work"
    )
    #: One operation per child: the warm pool outlives a map() call, so
    #: a second sweep in the same process would not pay the pool spawn
    #: that every `repro sweep` invocation pays.
    ops_per_child = 1

    def sizes(self, scale: float) -> Dict[str, Any]:
        return {"benchmark": "apache", "scale": 3.0 * scale, "jobs": 2}

    def imports(self) -> None:
        import repro.cli  # noqa: F401
        import repro.parallel  # noqa: F401

    def stage(self, inputs: Any, seed: int, sizes: Dict[str, Any],
              fraction: float = 1.0, jobs: Optional[int] = None,
              cache: Optional[str] = None) -> Any:
        from repro.analysis.experiments import ExperimentDefaults
        from repro.parallel import SweepExecutor

        defaults = ExperimentDefaults(seed=seed).scaled(
            sizes["scale"] * fraction
        )
        executor = SweepExecutor(
            jobs=jobs or sizes["jobs"], seed=seed, cache=cache
        )
        return sizes["benchmark"], defaults, executor

    def execute(self, staged: Any) -> str:
        from repro.analysis.experiments import tradeoff_sweep
        from repro.common.util import canonical_doc

        benchmark, defaults, executor = staged
        result = tradeoff_sweep(benchmark, defaults, executor=executor)
        return json.dumps(canonical_doc(result), sort_keys=True, indent=2)

    def outcome(self, text: str) -> Outcome:
        from repro.common.util import canonical_json_digest

        return Outcome(digest=canonical_json_digest(text))

    def checks(self, inputs: Any, seed: int,
               sizes: Dict[str, Any]) -> List[Tuple[str, bool]]:
        """The CLI verb prints what the API path returns (seed 42 is
        the CLI's fixed seed).  jobs-invariance is checked by the spans
        pass, which runs the operation at jobs=1."""
        import repro.cli

        cli_sizes = dict(sizes, scale=0.25)
        api = self.execute(self.stage(None, 42, cli_sizes, jobs=1))
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(io.StringIO()):
            repro.cli.main(["--scale", "0.25", "sweep", "tradeoff"])
        return [("cli_matches_api", stdout.getvalue() == api + "\n")]

    def parallel_extras(self, seed: int, sizes: Dict[str, Any],
                        cold_wall_s: float, digest: str,
                        scratch_dir: str) -> Dict[str, Any]:
        """Pool-spawn and cache-replay cost, in the process whose timed
        operation already spawned the pool.

        The first sweep here runs on the warm pool and fills a fresh
        cache directory (seven small JSON writes); the second replays
        it.  Pool spawn is this child's cold timed operation minus the
        warm one.
        """
        with tempfile.TemporaryDirectory(dir=scratch_dir) as cache_dir:
            warm_text, warm_wall_s = _timed(
                self, self.stage(None, seed, sizes, cache=cache_dir)
            )
            replay = self.stage(None, seed, sizes, cache=cache_dir)
            replay_text, replay_wall_s = _timed(self, replay)
        executor = replay[2]
        return {
            "pool_spawn_s": cold_wall_s - warm_wall_s,
            "cache_replay_s": replay_wall_s,
            "cache_hit_ratio": executor.tasks_cached
            / max(1, executor.tasks_cached + executor.tasks_run),
            "checks": [
                ("warm_pool_digest",
                 self.outcome(warm_text).digest == digest),
                ("cache_replay_digest",
                 self.outcome(replay_text).digest == digest),
            ],
        }


# ---------------------------------------------------------------------------
# ga_gen: one GA generation through the function `repro fig13 --tune` calls
# ---------------------------------------------------------------------------


class GaWorkload(Workload):
    name = "ga_gen"
    why = (
        "one GA generation via bdc_comparison(tune=True): ~20 short "
        "System.run windows with live reconfiguration, where per-run() "
        "engine set-up, not steady-state speed, decides the result"
    )

    def sizes(self, scale: float) -> Dict[str, Any]:
        def cycles(n: int) -> int:
            return max(50, int(n * scale))

        return {
            "adversary": "gcc",
            "victim": "mcf",
            "scale": 0.2 * scale,
            "epoch_cycles": cycles(1200),
            "profile_cycles": cycles(400),
            "settle_cycles": cycles(2400),
            "population_size": 4,
            "generations": 1,
        }

    def imports(self) -> None:
        import repro.cli  # noqa: F401

    def stage(self, inputs: Any, seed: int, sizes: Dict[str, Any],
              fraction: float = 1.0, jobs: Optional[int] = None,
              cache: Optional[str] = None) -> Any:
        from repro.analysis.experiments import ExperimentDefaults
        from repro.ga.online import TunerConfig

        def cycles(key: str) -> int:
            return max(1, int(sizes[key] * fraction))

        defaults = ExperimentDefaults(seed=seed).scaled(
            sizes["scale"] * fraction
        )
        tuner = TunerConfig(
            epoch_cycles=cycles("epoch_cycles"),
            profile_cycles=cycles("profile_cycles"),
            settle_cycles=cycles("settle_cycles"),
            population_size=sizes["population_size"],
            generations=sizes["generations"],
        )
        return sizes["adversary"], sizes["victim"], defaults, tuner

    def execute(self, staged: Any) -> Dict[str, float]:
        from repro.analysis.experiments import bdc_comparison

        adversary, victim, defaults, tuner = staged
        return bdc_comparison(
            adversary, victim, defaults, tune=True, tuner_config=tuner
        )

    def outcome(self, result: Dict[str, float]) -> Outcome:
        from repro.common.util import canonical_json_digest

        return Outcome(digest=canonical_json_digest(result))


WORKLOADS = {
    w.name: w
    for w in (
        SimWorkload(
            "mix4_bdc",
            "the paper's 4-core machine (mcf/astar/gcc/apache) with ReqC+RespC "
            "on every core: stepped cycles and skipped spans both matter; "
            "memctrl, dram and core do the work",
            ("mcf", "astar", "gcc", "apache"), accesses=16_000,
            cycles=140_000, shaping="uniform2", stop_when_done=False,
        ),
        SimWorkload(
            "mix4_open",
            "same four traces unshaped: memory saturated, ~85% of cycles "
            "stepped, skipping buys nothing and shapers are passthrough",
            ("mcf", "astar", "gcc", "apache"), accesses=16_000,
            cycles=64_000, shaping=None, stop_when_done=True,
        ),
        SimWorkload(
            "idle1_cs",
            "one quiet core under constant-rate ReqC+RespC: <5% of cycles "
            "stepped, engine skip bookkeeping is the largest layer",
            ("sjeng",), accesses=10_000, cycles=3_000_000, shaping="cs512",
            stop_when_done=True,
        ),
        SweepWorkload(),
        GaWorkload(),
    )
}


# ---------------------------------------------------------------------------
# traced passes
# ---------------------------------------------------------------------------


class _Seen:
    """The distinct objects (systems, executors) a pass called into."""

    def __init__(self) -> None:
        self._by_id: Dict[int, Any] = {}

    def add(self, item: Any) -> None:
        self._by_id.setdefault(id(item), item)

    def __iter__(self):
        return iter(self._by_id.values())


def _cycles(systems: _Seen) -> int:
    """Simulated cycles, exact: every system's clock starts at 0."""
    return sum(system.current_cycle for system in systems)


def _station_kind(station: str) -> str:
    return station.rstrip("0123456789")


def _engine_counts(systems: _Seen) -> Dict[str, Any]:
    """Sum the engine self-profiler's exact counts over ``systems``."""
    out: Dict[str, Any] = {
        "stepped_cycles": 0, "skipped_cycles": 0, "skip_spans": 0,
        "horizon_refreshes": 0, "dirty_repolls": 0,
        "full_tick_fallbacks": 0, "ticks": {}, "skips": {},
    }
    for system in systems:
        obs = system.observability
        if obs is None or obs.profiler is None:
            continue
        doc = obs.profiler.rollup()
        out["stepped_cycles"] += doc["cycles"]["stepped"]
        out["skipped_cycles"] += doc["cycles"]["skipped"]
        out["skip_spans"] += doc["skip_spans"]["total"]
        for key, value in doc["columnar"].items():
            out[key] += value
        for row in doc["stations"]:
            kind = _station_kind(row["station"])
            out["ticks"][kind] = out["ticks"].get(kind, 0) + row["ticks"]
            out["skips"][kind] = out["skips"].get(kind, 0) + row["skips"]
    return out


def _modelled_stats(systems: _Seen) -> Dict[str, float]:
    """Exact statistics of the modelled machine, summed over systems.

    A simulator-only change must leave every one of these identical.
    """
    import numpy as np

    reports = [system.report() for system in systems]
    cores = [core for report in reports for core in report.cores]
    latencies = [lat for core in cores for lat in core.memory_latencies]
    core_cycles = sum(core.cycles for core in cores)
    row_hits = sum(r.row_hits for r in reports)
    row_misses = sum(r.row_misses for r in reports)
    return {
        "cpu.retired_instructions": sum(
            c.retired_instructions for c in cores
        ),
        "cpu.ipc_mean": float(np.mean([c.ipc for c in cores])),
        "cpu.memory_stall_share": (
            sum(c.memory_stall_cycles for c in cores) / max(1, core_cycles)
        ),
        "cache.llc_accesses": sum(c.llc_accesses for c in cores),
        "cache.llc_misses": sum(c.llc_misses for c in cores),
        "core.demand_requests": sum(c.demand_requests for c in cores),
        "core.fake_requests": sum(c.fake_requests_sent for c in cores),
        "core.fake_responses": sum(c.fake_responses_sent for c in cores),
        "noc.request_grants": sum(r.request_link_grants for r in reports),
        "noc.response_grants": sum(r.response_link_grants for r in reports),
        "memctrl.mean_latency_cycles": (
            float(np.mean(latencies)) if latencies else 0.0
        ),
        "memctrl.p95_latency_cycles": (
            float(np.percentile(latencies, 95)) if latencies else 0.0
        ),
        "dram.row_hits": row_hits,
        "dram.row_misses": row_misses,
        "dram.row_hit_rate": row_hits / max(1, row_hits + row_misses),
        "dram.refreshes": sum(r.refreshes for r in reports),
    }


def _ga_evaluations(spans: List[Dict[str, Any]]) -> int:
    """Fitness evaluations: ``tune`` installs one genome per evaluation
    and then the winner once more."""
    tunes = {s["id"] for s in spans if s["name"] == "ga.tune"}
    installs = sum(
        1 for s in spans
        if s["name"] == "ga.apply_genome" and s["parent"] in tunes
    )
    return installs - len(tunes)


def _install_spans(recorder: tracing.SpanRecorder, systems: _Seen,
                   executors: _Seen) -> None:
    """Wrap the public layer boundaries of :mod:`repro` with spans."""
    import repro.analysis.experiments as experiments
    import repro.common.util as util
    import repro.security.detect as detect
    import repro.security.mutual_information as mutual_information
    import repro.sim.stats as stats
    import repro.workloads.spec as spec
    from repro.ga.online import OnlineGaTuner
    from repro.parallel import ResultCache, SweepExecutor
    from repro.sim.system import System, SystemBuilder

    original_build = SystemBuilder.build

    def build_with_profiler(builder):
        # Engine counts come from repro.obs's self-profiler, which only
        # exists when the builder asked for it; experiments build their
        # systems themselves, so the request is added here.  The spans
        # pass checks that the output digest is unchanged by it.
        if getattr(builder, "_obs_config", False) is None:
            builder.with_observability(profile=True)
        return original_build(builder)

    recorder.patch(SystemBuilder, "build", build_with_profiler)
    recorder.wrap_attr(SystemBuilder, "build", "sim.build")
    recorder.wrap_attr(
        System, "run", "sim.run",
        note=lambda span, args, kwargs, result: systems.add(args[0]),
    )
    recorder.wrap_attr(OnlineGaTuner, "tune", "ga.tune")
    recorder.wrap_attr(OnlineGaTuner, "apply_genome", "ga.apply_genome")
    recorder.wrap_attr(
        SweepExecutor, "map", "parallel.map",
        note=lambda span, args, kwargs, result: executors.add(args[0]),
    )
    recorder.wrap_attr(ResultCache, "get", "parallel.cache_get")
    recorder.wrap_attr(ResultCache, "put", "parallel.cache_put")
    recorder.wrap_function(spec.make_trace, "workloads.make_trace")
    recorder.wrap_function(
        mutual_information.windowed_rate_mi, "security.mi"
    )
    recorder.wrap_function(detect.detect_report, "security.detect")
    recorder.wrap_function(stats.report_digest, "common.digest")
    recorder.wrap_function(util.canonical_doc, "common.digest")
    recorder.wrap_function(
        experiments.tradeoff_sweep, "analysis.tradeoff_sweep"
    )
    recorder.wrap_function(
        experiments.bdc_comparison, "analysis.bdc_comparison"
    )


def _spans_pass(workload: Any, seed: int, sizes: Dict[str, Any]
                ) -> Dict[str, Any]:
    """One full-length operation under spans, at jobs=1 so that every
    span is in this process."""
    recorder = tracing.SpanRecorder()
    systems, executors = _Seen(), _Seen()
    _install_spans(recorder, systems, executors)
    try:
        with recorder.span("pass") as root:
            inputs = workload.inputs(seed, sizes)
            staged = workload.stage(inputs, seed, sizes, jobs=1)
            with recorder.span("op") as op:
                result = workload.execute(staged)
            outcome = workload.outcome(result)
    finally:
        recorder.restore()
    return {
        "digest": outcome.digest,
        "pass_wall_s": (root["end_ns"] - root["start_ns"]) / 1e9,
        "op_wall_s": (op["end_ns"] - op["start_ns"]) / 1e9,
        "cycles": _cycles(systems),
        "spans": recorder.spans,
        "rollup": tracing.rollup_spans(recorder.spans),
        "engine": _engine_counts(systems),
        "modelled": _modelled_stats(systems),
        "ga_evaluations": _ga_evaluations(recorder.spans),
        "tasks_run": sum(e.tasks_run for e in executors),
        "retries": sum(e.retries for e in executors),
    }


def _profile_pass(workload: Any, inputs: Any, seed: int,
                  sizes: Dict[str, Any]) -> Dict[str, Any]:
    """``cProfile`` around every ``System.run`` of a shortened operation."""
    from repro.sim.system import System

    profile = cProfile.Profile()
    systems = _Seen()
    original_run = System.run

    def profiled_run(system, *args, **kwargs):
        systems.add(system)
        profile.enable()
        try:
            return original_run(system, *args, **kwargs)
        finally:
            profile.disable()

    System.run = profiled_run
    try:
        staged = workload.stage(
            inputs, seed, sizes, fraction=PROFILE_FRACTION, jobs=1
        )
        _, wall_s = _timed(workload, staged)
    finally:
        System.run = original_run
    return {
        "wall_s": wall_s,
        "cycles": _cycles(systems),
        "layers": tracing.profile_by_layer(profile),
    }


# ---------------------------------------------------------------------------
# the child process
# ---------------------------------------------------------------------------


def measure(name: str, seed: int, budget_s: float, scale: float,
            final: bool, trace: bool, results_dir: str,
            started: float) -> Dict[str, Any]:
    """Set up, time operations for about ``budget_s`` seconds, and (in
    the run's final child) verify outputs and make the traced passes.

    ``started`` is ``time.perf_counter()`` at child entry.  Failures are
    collected, not raised: the parent counts them against the
    operations attempted.
    """
    workload = WORKLOADS[name]
    sizes = workload.sizes(scale)
    doc: Dict[str, Any] = {
        "sizes": sizes, "walls": [], "digests": [], "checks": [],
        "failures": [],
    }

    def failed(what: str) -> None:
        doc["failures"].append(f"{what}: {traceback.format_exc(limit=8)}")

    try:
        workload.imports()
        imported = time.perf_counter()
        inputs = workload.inputs(seed, sizes)
        made = time.perf_counter()
        workload.execute(workload.stage(
            inputs, seed, sizes, fraction=WARMUP_FRACTION, jobs=1
        ))
        warmed = time.perf_counter()
        staged = workload.stage(inputs, seed, sizes)
        ready = time.perf_counter()
    except Exception:
        failed("setup")
        return doc
    doc["setup"] = {
        "total_s": ready - started,
        "import_s": imported - started,
        "inputs_s": made - imported,
        "warmup_s": warmed - made,
        "stage_s": ready - warmed,
    }

    planned = workload.ops_per_child
    while True:
        try:
            result, wall_s = _timed(workload, staged)
            outcome = workload.outcome(result)
        except Exception:
            failed("operation")
            break
        doc["walls"].append(wall_s)
        doc["digests"].append(outcome.digest)
        if outcome.drained is not None:
            doc["checks"].append(("no_core_drained", not outcome.drained))
        if planned is None:
            planned = max(1, round(budget_s / wall_s))
        if len(doc["walls"]) >= planned:
            break
        # One operation's cyclic garbage (a System is full of cycles)
        # is collected here, not during the next timed operation, and
        # peak RSS does not depend on when the collector happened to run.
        del result, staged
        gc.collect()
        staged = workload.stage(inputs, seed, sizes)
    doc["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    if not final or doc["failures"]:
        return doc

    try:
        spans = _spans_pass(workload, seed, sizes)
        doc["checks"].append(
            ("spans_pass_digest", spans["digest"] == doc["digests"][0])
        )
        doc["checks"].extend(workload.checks(inputs, seed, sizes))
        if trace:
            doc["profile"] = _profile_pass(workload, inputs, seed, sizes)
            os.makedirs(results_dir, exist_ok=True)
            extras = workload.parallel_extras(
                seed, sizes, doc["walls"][0], doc["digests"][0],
                scratch_dir=results_dir,
            )
            if extras:
                doc["checks"].extend(extras.pop("checks"))
                doc["parallel"] = extras
            with open(os.path.join(results_dir, f"trace-{name}.json"), "w",
                      encoding="utf-8") as handle:
                json.dump(
                    {
                        "workload": name, "seed": seed, "sizes": sizes,
                        "pass_wall_s": spans["pass_wall_s"],
                        "spans": spans["spans"],
                    },
                    handle,
                )
                handle.write("\n")
        del spans["spans"]
        doc["spans"] = spans
    except Exception:
        failed("verification")
    return doc
