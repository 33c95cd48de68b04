"""One perf benchmark for the paper's workloads.

    python3 benchmarks/perf/run.py [--workload NAME] [--seed 42]
        [--seconds 15] [--reps 3] [--trace 0|1] [--out PATH] [--record]
    python3 benchmarks/perf/run.py compare A.json B.json

A run of one workload starts ``--reps`` fresh child processes one after
another (clean RSS, cold process pool, no cross-workload cache).  Each
child sets up, then times operations for its share of ``--seconds``
with tracing off; the last child then checks the outputs and, with
``--trace 1``, makes the traced passes that give the per-layer
metrics.  Every metric is printed by name with its unit, and the last
line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` for the last workload
run (end-to-end metrics with ``--trace 0``, per-layer with
``--trace 1``).

All module-level code is import-only: the sweep's warm pool uses the
``spawn`` start method, which re-imports this file in every worker.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import pathlib
import platform
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

import compare as compare_module
import metrics
import workloads

PERF_DIR = pathlib.Path(__file__).resolve().parent
REPO_ROOT = PERF_DIR.parents[1]
SOURCE_DIR = REPO_ROOT / "src"
RESULTS_DIR = PERF_DIR / "results"

#: A child that has not answered by then is killed with its process
#: group; the contract allows a run 180 s in all.
CHILD_TIMEOUT_S = 150


def environment() -> Dict[str, Any]:
    """Where the numbers were taken."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None  # the driver's checkout is not a git repository
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "git_commit": commit,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "REPRO_NUMBA": os.environ.get("REPRO_NUMBA"),
        "load_1m_at_start": os.getloadavg()[0],
    }


# ---------------------------------------------------------------------------
# child side
# ---------------------------------------------------------------------------


def child_main(argv: List[str]) -> int:
    entered = time.perf_counter()
    parser = argparse.ArgumentParser(prog="run.py child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--final", type=int, required=True)
    parser.add_argument("--trace", type=int, required=True)
    parser.add_argument("--results-dir", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args(argv)
    # Child start is the parent's spawn call: the interpreter's own
    # boot belongs to set-up time.
    started = entered - max(0.0, time.time() - args.spawned_at)
    sys.path.insert(0, str(SOURCE_DIR))
    doc = workloads.measure(
        args.workload, args.seed, args.budget, args.scale,
        final=bool(args.final), trace=bool(args.trace),
        results_dir=args.results_dir, started=started,
    )
    print(json.dumps(doc))
    return 0


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------


def _run_child(name: str, seed: int, budget_s: float, scale: float,
               final: bool, trace: bool) -> Dict[str, Any]:
    command = [
        sys.executable, str(PERF_DIR / "run.py"), "child",
        "--workload", name, "--seed", str(seed), "--budget", repr(budget_s),
        "--scale", repr(scale), "--final", str(int(final)),
        "--trace", str(int(trace)),
        "--results-dir", str(RESULTS_DIR),
        "--spawned-at", repr(time.time()),
    ]
    # Its own session, so that a stuck child is killed together with
    # the pool workers it spawned.  A fixed hash seed keeps str-keyed
    # dict and set layout, and with it interpreter speed, the same in
    # every child; the simulator's results do not depend on it.
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, start_new_session=True,
        env=dict(os.environ, PYTHONHASHSEED="0"),
    )
    try:
        stdout, _ = process.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        return {"failures": [f"child timed out after {CHILD_TIMEOUT_S} s"]}
    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        return {"failures": [f"child exited with code {process.returncode}"]}
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"failures": ["child printed no result document"]}


def run_workload(name: str, seed: int, seconds: float, reps: int,
                 trace: bool, scale: float) -> Dict[str, Any]:
    """Measure one workload; returns its section of the document."""
    children = [
        _run_child(name, seed, seconds / reps, scale,
                   final=(rep == reps - 1), trace=trace)
        for rep in range(reps)
    ]
    final = children[-1]
    spans = final.get("spans")
    digests = {d for child in children for d in child.get("digests", [])}
    checks = [tuple(check) for child in children
              for check in child.get("checks", [])]
    checks.append(("repetitions_agree", len(digests) == 1))
    failures = [f for child in children for f in child.get("failures", [])]
    failures += [f"check failed: {label}" for label, ok in checks if not ok]
    operations = sum(len(child.get("walls", [])) for child in children)
    attempted = operations + len(checks) + sum(
        len(child.get("failures", [])) for child in children
    )
    section: Dict[str, Any] = {
        "why": workloads.WORKLOADS[name].why,
        "sizes": workloads.WORKLOADS[name].sizes(scale),
        "operations": operations,
        "attempted": attempted,
        "failed": len(failures),
        "failed_share": len(failures) / attempted,
        "failures": failures,
        "end_to_end": metrics.end_to_end_values(
            children, spans["cycles"] if spans else None
        ),
        "sim_fingerprint": (
            metrics.sim_fingerprint(min(digests), spans["modelled"])
            if spans and digests else None
        ),
    }
    if trace and spans and "profile" in final:
        wall_s = section["end_to_end"]["wall_s"]["value"]
        values = metrics.per_layer_values(children, wall_s)
        section["per_layer"] = {
            metric.name: {"value": values[metric.name], "unit": metric.unit}
            for metric in metrics.PER_LAYER
        }
    return section


def contract_line(section: Dict[str, Any], trace: bool) -> str:
    """The result object the benchmark driver reads."""
    wanted = metrics.PER_LAYER if trace else metrics.END_TO_END
    source = section.get("per_layer" if trace else "end_to_end", {})
    complete = all(metric.name in source for metric in wanted)
    return json.dumps({
        "correct": section["failed"] == 0 and complete,
        "attempted": section["attempted"],
        "failed": section["failed"],
        "metrics": {
            metric.name: {
                "value": source[metric.name]["value"], "unit": metric.unit,
            }
            for metric in wanted if metric.name in source
        },
    })


def print_section(name: str, section: Dict[str, Any]) -> None:
    print(f"== {name}: {section['operations']} timed operations")
    for metric in metrics.END_TO_END:
        row = section["end_to_end"].get(metric.name)
        if row is None:
            print(f"  {metric.name:<18} missing")
            continue
        print(
            f"  {metric.name:<18} {row['value']:>14.6g} {metric.unit:<4} "
            f"median of n={row['n']} (min {row['min']:.6g}, "
            f"max {row['max']:.6g}); {metric.better} is better, "
            f"bound {metric.bound:.0%}"
        )
    print(
        f"  {'failed_share':<18} {section['failed_share']:>14.6g} share "
        f"({section['failed']} of {section['attempted']} operations and checks)"
    )
    for failure in section["failures"]:
        print(f"  FAILED {failure}")
    print(f"  {'sim_fingerprint':<18} {section['sim_fingerprint']}")
    for key, row in section.get("per_layer", {}).items():
        print(f"    {key:<30} {row['value']:>14.6g} {row['unit']}")


def append_trajectory(doc: Dict[str, Any]) -> None:
    """One line per recorded run, so drift shows in ``git diff``."""
    line = {
        "environment": doc["environment"],
        "seed": doc["seed"],
        "seconds": doc["seconds"],
        "reps": doc["reps"],
        "end_to_end": {
            name: {
                key: row["value"] for key, row in section["end_to_end"].items()
            }
            for name, section in doc["workloads"].items()
        },
        "sim_fingerprint": {
            name: section["sim_fingerprint"]
            for name, section in doc["workloads"].items()
        },
    }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    with open(RESULTS_DIR / "trajectory.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(line, sort_keys=True) + "\n")


def run_main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="run.py", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        help="one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="timed seconds per workload")
    parser.add_argument("--reps", type=int, default=3,
                        help="child processes (set-up samples) per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="1 adds the traced passes and per-layer metrics")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every workload (harness tests only)")
    parser.add_argument("--out", help="write the JSON document here")
    parser.add_argument("--record", action="store_true",
                        help="append this run to results/trajectory.jsonl")
    args = parser.parse_args(argv)
    if args.reps < 1 or args.seconds <= 0 or args.scale <= 0:
        parser.error("--reps, --seconds and --scale must be positive")
    if not (SOURCE_DIR / "repro").is_dir():
        print(f"run.py: no simulator source at {SOURCE_DIR / 'repro'}",
              file=sys.stderr)
        return 2

    # The build step: byte-compile once, so that no child's set-up
    # time includes compiling the simulator.
    compileall.compile_dir(str(SOURCE_DIR / "repro"), quiet=2)
    compileall.compile_dir(str(PERF_DIR), quiet=2, maxlevels=0)

    env = environment()
    if env["load_1m_at_start"] > env["cpu_count"] / 2:
        print(
            f"warning: 1-minute load {env['load_1m_at_start']:.2f} exceeds "
            f"half of {env['cpu_count']} CPUs; timings will be noisy",
            file=sys.stderr,
        )
    doc: Dict[str, Any] = {
        "schema": 1,
        "environment": env,
        "seed": args.seed,
        "seconds": args.seconds,
        "reps": args.reps,
        "scale": args.scale,
        "trace": args.trace,
        "workloads": {},
    }
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    line = ""
    for name in names:
        section = run_workload(
            name, args.seed, args.seconds, args.reps, bool(args.trace),
            args.scale,
        )
        doc["workloads"][name] = section
        print_section(name, section)
        line = contract_line(section, bool(args.trace))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    if args.record:
        append_trajectory(doc)
    print(line)
    return 0 if all(s["failed"] == 0 for s in doc["workloads"].values()) else 1


def compare_main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="run.py compare")
    parser.add_argument("a", help="base document")
    parser.add_argument("b", help="document judged against the base")
    args = parser.parse_args(argv)
    docs = []
    for path in (args.a, args.b):
        with open(path, "r", encoding="utf-8") as fh:
            docs.append(json.load(fh))
    lines, regressed = compare_module.compare(*docs)
    print("\n".join(lines))
    return 1 if regressed else 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        return compare_main(argv[1:])
    if argv[:1] == ["child"]:
        return child_main(argv[1:])
    return run_main(argv)


if __name__ == "__main__":
    sys.exit(main())
