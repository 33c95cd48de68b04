"""Figure 8 / section IV-C — online genetic-algorithm convergence.

Runs the CONFIG phase of the online GA on a live BDC system
(w(ADVERSARY, astar)) and reports the best average slowdown per
generation.  The paper runs 20 generations of 20-30 children at 20k
cycles each; we run a scaled version and check the search improves on
its random start and does not lose its best (elitism).
"""

from repro.analysis.experiments import build_mix, derive_request_config
from repro.analysis.format import ascii_series, format_table
from repro.core.bins import BinConfiguration
from repro.ga.online import OnlineGaTuner, ShaperHandle, TunerConfig
from repro.sim.system import RequestShapingPlan, ResponseShapingPlan

from conftest import BENCH_DEFAULTS


def test_ga_convergence(benchmark, record_result):
    def run():
        names = ["gcc", "astar", "astar", "astar"]
        spec = BENCH_DEFAULTS.spec
        request_plans = {
            core: RequestShapingPlan(
                config=BinConfiguration((4,) * 10), spec=spec
            )
            for core in (1, 2, 3)
        }
        response_plans = {
            0: ResponseShapingPlan(
                config=BinConfiguration((4,) * 10), spec=spec
            )
        }
        system = build_mix(
            names, BENCH_DEFAULTS,
            request_plans=request_plans,
            response_plans=response_plans,
            scheduler="priority",
        )
        handles = [
            ShaperHandle(
                name=f"req-core{core}", num_bins=spec.num_bins,
                reconfigure=system.request_paths[core].shaper.reconfigure,
            )
            for core in (1, 2, 3)
        ] + [
            ShaperHandle(
                name="resp-core0", num_bins=spec.num_bins,
                reconfigure=system.response_paths[0].shaper.reconfigure,
            )
        ]
        tuner = OnlineGaTuner(
            system, handles,
            config=TunerConfig(
                epoch_cycles=4000, profile_cycles=1500,
                population_size=10, generations=8,
            ),
            seed=BENCH_DEFAULTS.seed,
        )
        return tuner.tune()

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    history = result.fitness_history
    rows = [[g, f] for g, f in enumerate(history)]
    text = "\n".join(
        [
            format_table(["generation", "best_avg_slowdown"], rows),
            "",
            "convergence: " + ascii_series(history, width=len(history)),
            f"best genome: {result.best_genome}",
            f"config-phase cycles: {result.config_phase_cycles} "
            "(paper: INTERVAL x 20 generations)",
        ]
    )
    record_result("ga_convergence", text)

    # The search must improve on its first generation and keep its best.
    assert min(history) <= history[0]
    assert result.best_fitness == min(history)
    assert result.best_fitness < 3.0  # a sane slowdown for this mix
