#!/usr/bin/env python3
"""Online genetic-algorithm tuning of BDC bin configurations (Fig 8).

Builds a 4-core system — an adversary plus three protected victims —
with Bi-directional Camouflage (request shapers on the victims, a
response shaper on the adversary), then runs the paper's online GA
protocol: highest-priority-mode profiling followed by live child
evaluation windows, scored by average slowdown.

Run:  python examples/tune_with_ga.py
"""

from repro.analysis.experiments import (
    ExperimentDefaults,
    build_mix,
    _mix_names,
    run_alone,
)
from repro.analysis.format import ascii_series
from repro.core.bins import BinConfiguration
from repro.ga.online import OnlineGaTuner, ShaperHandle, TunerConfig
from repro.sim.system import RequestShapingPlan, ResponseShapingPlan

DEFAULTS = ExperimentDefaults(accesses=4000, cycles=20000)


def main() -> None:
    names = _mix_names("gcc", "astar")
    print(f"workload: {names}\n")

    print("measuring unshaped alone IPCs (the slowdown reference) ...")
    alone_ipcs = [
        run_alone(name, DEFAULTS, core_slot=slot).core(0).ipc
        for slot, name in enumerate(names)
    ]
    print("  alone IPCs:", [round(i, 2) for i in alone_ipcs], "\n")

    spec = DEFAULTS.spec
    start = BinConfiguration((4,) * 10)  # a deliberately naive start
    system = build_mix(
        names, DEFAULTS,
        request_plans={
            c: RequestShapingPlan(config=start, spec=spec) for c in (1, 2, 3)
        },
        response_plans={0: ResponseShapingPlan(config=start, spec=spec)},
        scheduler="priority",
        trace_repeat=30,
    )
    handles = [
        ShaperHandle(
            name=f"req-core{c}", num_bins=spec.num_bins,
            reconfigure=system.request_paths[c].shaper.reconfigure,
        )
        for c in (1, 2, 3)
    ] + [
        ShaperHandle(
            name="resp-core0", num_bins=spec.num_bins,
            reconfigure=system.response_paths[0].shaper.reconfigure,
        )
    ]

    tuner = OnlineGaTuner(
        system, handles,
        config=TunerConfig(
            epoch_cycles=4000, profile_cycles=1500, settle_cycles=4000,
            population_size=8, generations=6,
        ),
        seed=1,
        alone_ipcs=alone_ipcs,
    )
    print(f"tuning {tuner.genome_length} genes "
          f"(3 request shapers + 1 response shaper, 10 bins each) ...")
    result = tuner.tune()

    print()
    print("best average slowdown per generation:")
    for gen, fitness in enumerate(result.fitness_history):
        print(f"  gen {gen}: {fitness:.3f}")
    print("  " + ascii_series(result.fitness_history,
                              width=len(result.fitness_history)))
    print()
    print(f"winning genome: {result.best_genome}")
    print(f"CONFIG phase consumed {result.config_phase_cycles} cycles "
          "(the paper: INTERVAL x NUM_GENERATIONS, Figure 8)")


if __name__ == "__main__":
    main()
