"""Parameter sweeps for the baselines and the substrate.

The Figure 13 comparison depends on configuration choices the paper
does not pin down (TP turn length, FS slot interval).  These sweeps
make the sensitivity explicit, so the comparison's fairness can be
audited: the benchmark harness runs them and EXPERIMENTS.md reports
where each baseline was operated relative to its own optimum.

Every sweep's points are independent simulations, so each function
accepts ``jobs``/``cache_dir``/``executor`` and fans out through
:class:`repro.parallel.SweepExecutor` (docs/parallel.md); results are
merged in submission order and are bit-identical for every ``jobs``
value.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.analysis.experiments import (
    ExperimentDefaults,
    _mix_names,
    _resolve_executor,
    alone_base_runs,
)
from repro.parallel.tasks import (
    encode_point,
    mesh_position_task,
    mix_slowdown_task,
    noc_latency_task,
)


def _mix_slowdown_rows(adversary: str, victim: str,
                       defaults: ExperimentDefaults, runner,
                       variants: Dict[str, Dict]):
    """Run w(adversary, victim) once per labelled baseline variant.

    Stage 0 runs each program alone at its mix slot (the slowdown
    denominators); each variant's dict is the scheduler part of the
    machine (:func:`~repro.parallel.tasks.encode_point` keywords).
    """
    names = _mix_names(adversary, victim)
    alone = [
        row["ipc"] for row in alone_base_runs(
            names, defaults, runner,
            [f"{name}:slot{slot}" for slot, name in enumerate(names)],
        )
    ]
    return runner.map(
        mix_slowdown_task,
        [
            encode_point(names, defaults, alone_ipcs=alone, **variant)
            for variant in variants.values()
        ],
        kind="mix-slowdown", labels=list(variants),
    )


def tp_turn_length_sweep(
    adversary: str = "gcc",
    victim: str = "mcf",
    defaults: ExperimentDefaults = ExperimentDefaults(),
    turn_lengths: Sequence[int] = (64, 96, 128, 192, 256, 384),
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    executor=None,
) -> Dict[int, float]:
    """Average slowdown of TP across turn lengths.

    Short turns waste a larger dead-time fraction; long turns make
    non-owners wait longer.  The sweep exposes the U-shape and shows
    where the Figure 13 default (128) sits.
    """
    runner = _resolve_executor(executor, jobs, cache_dir, defaults.seed)
    rows = _mix_slowdown_rows(adversary, victim, defaults, runner, {
        f"tp:turn{turn}": dict(
            scheduler="tp", scheduler_kwargs={"turn_length": turn}
        )
        for turn in turn_lengths
    })
    return {
        turn: row["slowdown"] for turn, row in zip(turn_lengths, rows)
    }


def fs_interval_sweep(
    adversary: str = "gcc",
    victim: str = "mcf",
    defaults: ExperimentDefaults = ExperimentDefaults(),
    intervals: Sequence[int] = (12, 16, 20, 24, 32, 48),
    bank_partitioning: bool = True,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    executor=None,
) -> Dict[int, Dict[str, float]]:
    """FS (+banks) across slot intervals: slowdown AND leak proxy.

    Tight intervals perform better but *slip* — services land late
    because the aggregate constant injection exceeds what the channel
    sustains, making observable service load-dependent (a leak; see
    :meth:`FixedServiceScheduler.slip_fraction`).  The Figure 13
    comparison must use the best interval among the leak-free ones.
    """
    runner = _resolve_executor(executor, jobs, cache_dir, defaults.seed)
    rows = _mix_slowdown_rows(adversary, victim, defaults, runner, {
        f"fs:interval{interval}": dict(
            scheduler="fs", scheduler_kwargs={"interval": interval},
            bank_partitioning=bank_partitioning,
        )
        for interval in intervals
    })
    return {
        interval: {
            "slowdown": row["slowdown"],
            "slip_fraction": row["slip_fraction"],
        }
        for interval, row in zip(intervals, rows)
    }


def noc_latency_sweep(
    benchmark: str = "mcf",
    defaults: ExperimentDefaults = ExperimentDefaults(),
    latencies: Sequence[int] = (1, 2, 4, 8, 16),
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    executor=None,
) -> Dict[int, float]:
    """Single-core mean memory latency vs NoC hop latency (sanity
    sweep for the substrate: end-to-end latency must grow by exactly
    2x the added hop latency — request plus response traversal)."""
    runner = _resolve_executor(executor, jobs, cache_dir, defaults.seed)
    rows = runner.map(
        noc_latency_task,
        [
            encode_point([benchmark], defaults, noc_latency=latency)
            for latency in latencies
        ],
        kind="noc-latency",
        labels=[f"noc:hop{latency}" for latency in latencies],
    )
    return {
        latency: row["mean_latency"]
        for latency, row in zip(latencies, rows)
    }


def mesh_position_leakage(
    defaults: ExperimentDefaults = ExperimentDefaults(),
    victims: Sequence[str] = ("mcf", "astar"),
    shaped: bool = False,
    num_cores: int = 8,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    executor=None,
) -> Dict[int, float]:
    """Per-position side-channel strength on the mesh NoC.

    The secret is *which program* runs at position *p* (mcf vs astar —
    the paper's canonical intensity contrast).  For each position the
    adversary (core 0, a gcc-like program) times its own memory
    latencies in both worlds; the returned value is the
    distinguishability between them.  On a mesh, positions whose
    routes to the memory controller share more links with the
    adversary's leak more; with the victim's traffic shaped to one
    predetermined distribution the two worlds look alike at *every*
    position.
    """
    runner = _resolve_executor(executor, jobs, cache_dir, defaults.seed)
    positions = list(range(1, num_cores))
    rows = runner.map(
        mesh_position_task,
        [
            # No recipe programs: the task builds its own two worlds
            # from the run geometry and these fields.
            encode_point(
                [], defaults, victims=list(victims), position=position,
                shaped=bool(shaped), num_cores=int(num_cores),
            )
            for position in positions
        ],
        kind="mesh-position",
        labels=[f"mesh:pos{position}" for position in positions],
    )
    return {row["position"]: row["distinguishability"] for row in rows}
