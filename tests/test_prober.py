"""Tests for the fine-grained probing adversary (section IV-B4)."""

import pytest

from repro.common.errors import ConfigurationError
from repro.security.bounds import replenishment_window_leakage_bound
from repro.security.prober import (
    classify_conflicts,
    conflict_information,
    prober_trace,
)


class TestProberTrace:
    def test_guaranteed_misses(self):
        trace = prober_trace(50)
        addresses = [r.address for r in trace]
        assert len(set(a & ~63 for a in addresses)) == 50  # all fresh lines

    def test_steady_gaps(self):
        trace = prober_trace(20, gap_insts=80)
        assert all(r.nonmem_insts == 80 for r in trace)

    def test_rejects_bad_args(self):
        with pytest.raises(ConfigurationError):
            prober_trace(0)
        with pytest.raises(ConfigurationError):
            prober_trace(5, gap_insts=-1)


class TestClassifyConflicts:
    def test_thresholding(self):
        observations = classify_conflicts(
            [(100, 50), (200, 90), (300, 40)], baseline_latency=50.0,
            slack=1.3,
        )
        assert observations == [(100, 0), (200, 1), (300, 0)]

    def test_rejects_bad_baseline(self):
        with pytest.raises(ConfigurationError):
            classify_conflicts([], baseline_latency=0.0)

    def test_rejects_slack_below_one(self):
        with pytest.raises(ConfigurationError):
            classify_conflicts([], baseline_latency=10.0, slack=0.5)


class TestConflictInformation:
    def test_correlated_conflicts_leak(self):
        """Conflicts tracking victim activity yield high MI."""
        window = 100
        victim, conflicts = [], []
        for w in range(60):
            active = w % 2 == 0
            if active:
                victim.extend(range(w * window, w * window + 50, 5))
                conflicts.extend(
                    (w * window + i, 1) for i in range(0, 50, 10)
                )
            else:
                conflicts.append((w * window + 10, 0))
        mi = conflict_information(conflicts, victim, window, 6000)
        assert mi > 0.5

    def test_independent_conflicts_near_zero(self):
        import numpy as np

        rng = np.random.default_rng(3)
        window = 100
        victim = sorted(rng.integers(0, 10_000, 400).tolist())
        conflicts = [
            (int(c), int(rng.integers(0, 2)))
            for c in rng.integers(0, 10_000, 300)
        ]
        mi = conflict_information(conflicts, victim, window, 10_000)
        assert mi < 0.2

    def test_rejects_bad_window(self):
        with pytest.raises(ConfigurationError):
            conflict_information([], [], 0, 100)

    def test_conflict_on_rightmost_edge_is_counted(self):
        # Regression: a conflict landing exactly on num_windows *
        # window_cycles fell outside the prober's own binning loop;
        # it belongs to the last window, as in ``windowed_counts``.
        victim = [350, 360]
        on_edge = conflict_information([(400, 1)], victim, 100, 400)
        inside = conflict_information([(399, 1)], victim, 100, 400)
        assert on_edge == inside > 0.0


class TestEndToEndProbing:
    """Run the full attack against the simulator, then defend it."""

    def _run(self, shape_victim: bool):
        from repro.analysis.experiments import staircase_config
        from repro.common.rng import DeterministicRng
        from repro.core.bins import BinSpec
        from repro.sim.system import RequestShapingPlan, SystemBuilder
        from repro.workloads.phased import Phase, PhasedTraceGenerator
        from repro.workloads.synthetic import TraceParameters

        spec = BinSpec(replenish_period=512)
        # Quiet/busy phases sized to comparable *cycle* spans (the
        # busy phase runs ~10x faster, so it gets ~10x the accesses).
        quiet = TraceParameters(gap_mean=250, working_set_bytes=8 << 20,
                                base_address=1 << 33, p_enter_off=0.0)
        busy = TraceParameters(gap_mean=16, working_set_bytes=8 << 20,
                               base_address=1 << 33, p_enter_off=0.0)
        phase_list = []
        for _ in range(4):
            phase_list.append(Phase(quiet, 130))
            phase_list.append(Phase(busy, 900))
        victim_trace = PhasedTraceGenerator(
            phase_list, DeterministicRng(6)
        ).trace()
        plan = None
        if shape_victim:
            plan = RequestShapingPlan(
                config=staircase_config(spec, 1 / 24), spec=spec
            )
        builder = SystemBuilder(seed=6)
        builder.add_core(prober_trace(3000, gap_insts=100))
        builder.add_core(victim_trace, request_shaping=plan)
        system = builder.build()
        system.run(90_000, stop_when_done=False)

        # Baseline: the prober alone.
        alone = SystemBuilder(seed=6)
        alone.add_core(prober_trace(500, gap_insts=100))
        alone_sys = alone.build()
        alone_report = alone_sys.run(20_000, stop_when_done=False)
        baseline = alone_report.core(0).mean_memory_latency()

        report = system.report()
        conflicts = classify_conflicts(
            report.core(0).response_times, baseline, slack=1.15
        )
        victim_times = [
            cycle
            for cycle, port, _txn in system.request_link.grant_trace
            if port == 1
        ]
        mi = conflict_information(
            conflicts, victim_times, window_cycles=2048,
            total_cycles=system.current_cycle,
        )
        return mi

    def test_unshaped_victim_is_probed(self):
        assert self._run(shape_victim=False) > 0.15

    def test_shaping_cuts_probe_information(self):
        open_mi = self._run(shape_victim=False)
        closed_mi = self._run(shape_victim=True)
        assert closed_mi < open_mi / 2

    def test_bound_is_respected(self):
        """Measured per-window leakage never exceeds the analytic
        bound (credits per window of a typical prober config)."""
        from repro.core.bins import BinConfiguration

        measured = self._run(shape_victim=True)
        bound = replenishment_window_leakage_bound(
            BinConfiguration((2,) * 10)
        )
        assert measured <= bound
