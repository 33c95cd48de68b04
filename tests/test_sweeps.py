"""Tests for the parameter-sweep drivers (fast reduced configs)."""

import dataclasses

import pytest

from repro.analysis.experiments import (
    ExperimentDefaults,
    scalability_experiment,
)
from repro.analysis.sweeps import (
    fs_interval_sweep,
    mesh_position_leakage,
    noc_latency_sweep,
    tp_turn_length_sweep,
)

FAST = dataclasses.replace(ExperimentDefaults(), accesses=800, cycles=8000)


class TestTpSweep:
    def test_returns_all_points(self):
        out = tp_turn_length_sweep("gcc", "astar", FAST,
                                   turn_lengths=(96, 192))
        assert set(out) == {96, 192}
        assert all(v >= 1.0 for v in out.values())

    def test_turn_length_matters(self):
        """The sweep exists because TP is sensitive to its turn length
        (which way depends on the mix — that's the point of sweeping)."""
        out = tp_turn_length_sweep("gcc", "astar", FAST,
                                   turn_lengths=(64, 256))
        assert out[64] != out[256]
        assert all(v < 20 for v in out.values())  # sane magnitudes


class TestAloneRunsShared:
    def test_one_cache_serves_every_sweep_family(self, tmp_path):
        """One alone-run task family: the gcc-at-slot-0 baseline that
        ``scalability_experiment`` cached is a hit for the TP sweep's
        slowdown denominators (it used to be re-simulated under a
        second cache kind)."""
        from repro.parallel import SweepExecutor

        executor = SweepExecutor(cache=str(tmp_path / "cache"))
        scalability_experiment(
            "gcc", FAST, core_counts=(2,), executor=executor
        )
        assert executor.tasks_cached == 0
        ran = executor.tasks_run
        tp_turn_length_sweep(
            "gcc", "mcf", FAST, turn_lengths=(128,), executor=executor
        )
        # Four alone runs (gcc@0, mcf@1..3) plus one mix: only gcc@0
        # was seen before.
        assert executor.tasks_cached == 1
        assert executor.tasks_run - ran == 4


class TestFsSweep:
    def test_returns_slowdown_and_slip(self):
        out = fs_interval_sweep("gcc", "astar", FAST, intervals=(20, 48))
        for values in out.values():
            assert set(values) == {"slowdown", "slip_fraction"}
            assert values["slowdown"] >= 1.0
            assert 0.0 <= values["slip_fraction"] <= 1.0

    def test_looser_interval_slower(self):
        out = fs_interval_sweep("gcc", "mcf", FAST, intervals=(16, 48))
        assert out[48]["slowdown"] > out[16]["slowdown"]


class TestNocSweep:
    def test_latency_monotone(self):
        out = noc_latency_sweep("gcc", FAST, latencies=(1, 8))
        assert out[8] > out[1]

    def test_delta_tracks_round_trip(self):
        out = noc_latency_sweep("sjeng", FAST, latencies=(1, 9))
        delta = out[9] - out[1]
        assert 1.5 * 8 <= delta <= 3.5 * 8


class TestMeshPositionSweep:
    def test_returns_per_position_values(self):
        small = dataclasses.replace(FAST, accesses=500, cycles=6000)
        out = mesh_position_leakage(small, num_cores=4)
        assert set(out) == {1, 2, 3}
        assert all(v >= 0 for v in out.values())


class TestCalibrationUnit:
    def test_calibrate_benchmark_fields(self):
        from repro.analysis.calibration import calibrate_benchmark

        cal = calibrate_benchmark("gcc", FAST)
        assert cal.name == "gcc"
        assert cal.ipc > 0
        assert cal.llc_mpki >= 0
        assert 0 <= cal.row_hit_rate <= 1
        assert cal.burstiness >= 0

    def test_claims_structure(self):
        from repro.analysis.calibration import (
            calibrate_suite,
            check_substitution_claims,
        )

        cals = calibrate_suite(
            FAST,
            benchmarks=("mcf", "astar", "sjeng", "libquantum",
                        "apache", "gcc", "omnetpp"),
        )
        claims = check_substitution_claims(cals)
        assert len(claims) == 4
        assert all(isinstance(v, bool) for v in claims.values())
