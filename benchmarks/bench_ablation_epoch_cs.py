"""Ablation — the Fletcher'14 epoch-rate design point vs CS vs Camouflage.

Paper section II-B describes the enhanced Ascend scheme (reference
[14]) as a middle point between a single constant rate and full
Camouflage: per-epoch rate choice buys performance and pays a bounded
``E × log2(R)`` bits of leakage.  This ablation places all three on
the same (IPC, leakage) plane for a bursty workload.
"""

from repro.analysis.experiments import run_alone, staircase_config
from repro.analysis.format import format_table
from repro.core.bins import BinSpec, constant_rate_config
from repro.security.bounds import epoch_rate_leakage_bound
from repro.security.mutual_information import windowed_rate_mi
from repro.sim.system import EpochShapingPlan, RequestShapingPlan, SystemBuilder
from repro.workloads.spec import make_trace

from conftest import LONG_DEFAULTS

SPEC = BinSpec(replenish_period=512)
BENCH = "apache"


def _times(histogram):
    out, t = [], 0
    for gap in histogram.gaps:
        t += gap
        out.append(t)
    return out


def _run(request_plan):
    builder = SystemBuilder(seed=LONG_DEFAULTS.seed)
    builder.add_core(
        make_trace(BENCH, LONG_DEFAULTS.accesses, seed=LONG_DEFAULTS.seed),
        request_shaping=request_plan,
    )
    system = builder.build()
    report = system.run(LONG_DEFAULTS.cycles, stop_when_done=False)
    return system, report


def test_ablation_epoch_cs(benchmark, record_result):
    def run():
        base = run_alone(BENCH, LONG_DEFAULTS)
        rate = base.core(0).request_intrinsic.total / max(1, base.cycles_run)

        out = {"no-shaping": {"ipc": base.core(0).ipc, "mi": None,
                              "bound": None}}

        # CS: single constant rate near the average demand.
        interval = SPEC.edges[0]
        for edge in SPEC.edges:
            if edge <= 1.0 / max(rate, 1e-9):
                interval = edge
        _sys, report = _run(
            RequestShapingPlan(
                config=constant_rate_config(SPEC, interval), spec=SPEC
            )
        )
        stats = report.core(0)
        out["cs"] = {
            "ipc": stats.ipc,
            "mi": windowed_rate_mi(
                _times(stats.request_intrinsic),
                _times(stats.request_shaped),
                2048, report.cycles_run, bias_correction=True,
            ),
            "bound": 0.0,
        }

        # Epoch-rate (Fletcher'14): adapts per epoch, leaks E*log2(R).
        system, report = _run(EpochShapingPlan(epoch_cycles=8192))
        policy = system.request_paths[0].shaper
        stats = report.core(0)
        out["epoch-cs"] = {
            "ipc": stats.ipc,
            "mi": windowed_rate_mi(
                _times(stats.request_intrinsic),
                _times(stats.request_shaped),
                2048, report.cycles_run, bias_correction=True,
            ),
            "bound": policy.leakage_bound_bits(),
        }

        # Camouflage: predetermined staircase at the same average rate.
        _sys, report = _run(
            request_plan=RequestShapingPlan(
                config=staircase_config(SPEC, rate * 1.2), spec=SPEC
            )
        )
        stats = report.core(0)
        out["camouflage"] = {
            "ipc": stats.ipc,
            "mi": windowed_rate_mi(
                _times(stats.request_intrinsic),
                _times(stats.request_shaped),
                2048, report.cycles_run, bias_correction=True,
            ),
            "bound": 0.0,
        }
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [label, r["ipc"],
         "-" if r["mi"] is None else round(r["mi"], 4),
         "-" if r["bound"] is None else round(r["bound"], 1)]
        for label, r in results.items()
    ]
    text = format_table(
        ["scheme", "ipc", "measured_mi_bits", "analytic_bound_bits"], rows
    )
    record_result("ablation_epoch_cs", text)

    # Ordering claims from section II-B:
    # epoch-CS outperforms CS (it adapts to phases) ...
    assert results["epoch-cs"]["ipc"] >= results["cs"]["ipc"] * 0.95
    # ... but pays a non-zero analytic leakage bound,
    assert results["epoch-cs"]["bound"] > 0
    # while Camouflage gets (at least) epoch-CS-level performance with
    # no rate-choice side channel.
    assert results["camouflage"]["ipc"] >= results["cs"]["ipc"]
    assert results["camouflage"]["mi"] < 0.3
