"""Tests of the benchmark harness itself (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/perf -q
"""

import json
import pathlib
import subprocess
import sys

import pytest

PERF_DIR = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(PERF_DIR))

import compare  # noqa: E402
import metrics  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _span(ident, name, parent, start, end):
    return {"id": ident, "name": name, "parent": parent,
            "start_ns": start, "end_ns": end}


def test_self_time_is_span_minus_children():
    spans = [
        _span(0, "pass", None, 0, 1000),
        _span(1, "sim.build", 0, 100, 200),
        _span(2, "sim.run", 0, 200, 900),
        _span(3, "common.digest", 2, 300, 350),
        _span(4, "common.digest", 2, 400, 450),
    ]
    own = tracing.self_times(spans)
    assert own == {0: 200, 1: 100, 2: 600, 3: 50, 4: 50}
    assert sum(own.values()) == 1000  # the root's duration, exactly
    rollup = tracing.rollup_spans(spans)
    assert rollup["common.digest"] == {
        "calls": 2, "total_s": 100 / 1e9, "self_s": 100 / 1e9,
    }
    assert rollup["sim.run"]["self_s"] == 600 / 1e9


def test_recorder_nests_and_skips_reentry():
    recorder = tracing.SpanRecorder()

    class Box:
        def outer(self):
            return self.inner(2)

        def inner(self, depth):
            return 0 if depth == 0 else 1 + self.inner(depth - 1)

    recorder.wrap_attr(Box, "outer", "box.outer")
    recorder.wrap_attr(Box, "inner", "box.inner")
    try:
        with recorder.span("pass"):
            assert Box().outer() == 2
    finally:
        recorder.restore()
    assert [s["name"] for s in recorder.spans] == [
        "pass", "box.outer", "box.inner",
    ]
    assert [s["parent"] for s in recorder.spans] == [None, 0, 1]
    assert Box.outer.__name__ == "outer" and not recorder._patches


@pytest.mark.parametrize("path, layer", [
    ("/x/src/repro/sim/columnar.py", "sim"),
    ("/x/src/repro/memctrl/schedulers.py", "memctrl"),
    ("/x/src/repro/cli.py", "cli"),
    ("/x/src/repro/lint/runner.py", "python"),
    ("/usr/lib/python3.11/heapq.py", "python"),
    ("~", "python"),
    ("<built-in method builtins.len>", "python"),
    ("/x/benchmarks/perf/workloads.py", "python"),
])
def test_path_to_layer(path, layer):
    assert tracing.layer_of_path(path) == layer


def test_summarize_reports_median_min_max_n():
    assert tracing.summarize([3.0, 1.0, 2.0, 10.0]) == {
        "value": 2.5, "min": 1.0, "max": 10.0, "n": 4,
    }
    with pytest.raises(ValueError):
        tracing.summarize([])


def _doc(wall, low=None, high=None, row_hits=100, fingerprint="f",
         failed_share=0.0):
    def row(value, lo=None, hi=None):
        return {"value": value, "min": lo or value, "max": hi or value,
                "n": 3, "unit": "s"}

    return {"workloads": {"mix4_bdc": {
        "end_to_end": {
            "wall_s": row(wall, low, high),
            "sim_cycles_per_s": row(1000.0 / wall, 1000.0 / (high or wall),
                                    1000.0 / (low or wall)),
            "setup_s": row(0.5),
            "peak_rss_mb": row(60.0),
        },
        "failed_share": failed_share,
        "sim_fingerprint": fingerprint,
        "per_layer": {"dram.row_hits": {"value": row_hits, "unit": "count"}},
    }}}


def test_compare_verdicts():
    base = _doc(1.0)
    lines, regressed = compare.compare(base, _doc(1.05))
    assert not regressed and "wall_s" in lines[1] and lines[1].endswith("ok")
    assert "+5.0% of A" in lines[1]

    lines, regressed = compare.compare(base, _doc(1.4))
    assert regressed and lines[1].endswith("regressed")
    # sim_cycles_per_s is higher-is-better: 1000/1.4 is 29% worse.
    assert lines[2].endswith("regressed")

    # B's spread (39%) is wider than the bound and overlaps A.
    lines, regressed = compare.compare(base, _doc(1.4, low=0.95, high=1.5))
    assert not regressed and lines[1].endswith("unresolved")

    # ... but a wide spread wholly on the bad side is still a regression.
    lines, regressed = compare.compare(base, _doc(1.7, low=1.4, high=2.0))
    assert regressed and lines[1].endswith("regressed")

    lines, regressed = compare.compare(
        base, _doc(1.0, row_hits=101, fingerprint="g")
    )
    assert not regressed
    assert any("sim_fingerprint" in l and "changed" in l for l in lines)
    assert any("count dram.row_hits: A 100 -> B 101" in l for l in lines)

    _, regressed = compare.compare(base, _doc(1.0, failed_share=0.1))
    assert regressed


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads(
        (PERF_DIR.parents[1] / "BENCHMARK.json").read_text(encoding="utf-8")
    )
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in metrics.END_TO_END
    ]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in metrics.PER_LAYER
    ]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert len(metrics.PER_LAYER) == 98


def test_importing_run_has_no_side_effects():
    """The sweep's pool workers (spawn) re-import run.py: importing it
    must neither parse arguments, print, start a process nor import
    the simulator."""
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.argv = ['run.py', '--no-such-flag']; import run; "
         "assert 'repro' not in sys.modules; print('imported')"],
        cwd=PERF_DIR, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "imported\n"


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_every_workload(name, tmp_path):
    out = tmp_path / "doc.json"
    done = subprocess.run(
        [sys.executable, str(PERF_DIR / "run.py"), "--workload", name,
         "--reps", "1", "--seconds", "0.2", "--scale", "0.02",
         "--trace", "1", "--out", str(out)],
        stdout=subprocess.PIPE, text=True, timeout=170,
    )
    assert done.returncode == 0
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m.name for m in metrics.PER_LAYER}
    section = json.loads(out.read_text(encoding="utf-8"))["workloads"][name]
    assert section["failed_share"] == 0
    for metric in metrics.END_TO_END:
        assert section["end_to_end"][metric.name]["value"] > 0
    assert section["sim_fingerprint"]
    trace = json.loads(
        (PERF_DIR / "results" / f"trace-{name}.json").read_text("utf-8")
    )
    own_s = sum(tracing.self_times(trace["spans"]).values()) / 1e9
    assert own_s == pytest.approx(trace["pass_wall_s"], rel=0.01)
