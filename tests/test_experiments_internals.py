"""Unit tests for experiment-driver internals."""

import dataclasses
import json
import random

import numpy as np
import pytest

from repro.analysis.experiments import (
    LADDER_REPLENISH_PERIOD,
    ExperimentDefaults,
    _avg_slowdown,
    _mix_names,
    constant_rate_interval_for,
    derive_response_config,
    fig9_experiment,
    tradeoff_sweep,
)
from repro.analysis.experiments import build_mix, run_alone, run_mix
from repro.common.errors import ConfigurationError
from repro.core.bins import BinConfiguration, BinSpec
from repro.parallel import SweepExecutor
from repro.parallel.tasks import (
    alone_base_task,
    encode_point,
    mix_slowdown_task,
    run_point,
)
from repro.sim.stats import report_digest
from repro.sim.system import EpochShapingPlan, RequestShapingPlan

FAST = dataclasses.replace(ExperimentDefaults(), accesses=600, cycles=6000)
STAIRCASE = BinConfiguration((10, 9, 8, 7, 6, 5, 4, 3, 2, 1))


class TestMixNames:
    def test_adversary_plus_three_victims(self):
        assert _mix_names("gcc", "mcf") == ["gcc", "mcf", "mcf", "mcf"]


class TestAvgSlowdown:
    def test_simple_mean(self):
        assert _avg_slowdown([1.0, 2.0], [2.0, 2.0]) == pytest.approx(1.5)

    def test_skips_dead_cores(self):
        value = _avg_slowdown([0.0, 1.0], [2.0, 2.0])
        assert value == pytest.approx(2.0)

    def test_all_dead_is_infinite(self):
        assert _avg_slowdown([0.0], [2.0]) == float("inf")

    def test_skips_zero_alone(self):
        assert _avg_slowdown([1.0, 1.0], [0.0, 3.0]) == pytest.approx(3.0)

    @staticmethod
    def _numpy_mean(shared, alone):
        slowdowns = [a / s for s, a in zip(shared, alone) if s > 0 and a > 0]
        return float(np.mean(slowdowns)) if slowdowns else float("inf")

    @staticmethod
    def _ipcs(rng, n):
        # A zero on either side is a dead core the mean filters out.
        return [0.0 if rng.random() < 0.15 else rng.uniform(0.05, 2.5)
                for _ in range(n)]

    @pytest.mark.parametrize("cores", range(1, 17))
    def test_keeps_numpys_bits(self, cores):
        # Below 8 values numpy's pairwise sum is one left-to-right loop,
        # so a Python loop matches it bit for bit; from 8 on it keeps
        # eight partial sums, and _avg_slowdown defers to numpy there.
        rng = random.Random(cores)
        for _ in range(200):
            shared, alone = self._ipcs(rng, cores), self._ipcs(rng, cores)
            expected = self._numpy_mean(shared, alone)
            assert _avg_slowdown(shared, alone).hex() == expected.hex()


class TestConstantRateInterval:
    SPEC = BinSpec(edges=(4, 8, 16, 32), replenish_period=64)

    def test_largest_edge_not_exceeding_target(self):
        assert constant_rate_interval_for(self.SPEC, 20.0) == 16
        assert constant_rate_interval_for(self.SPEC, 8.0) == 8

    def test_clamps_to_nearest_edge(self):
        """When every edge exceeds the target (the program outruns the
        fastest bin), the interval clamps to the nearest edge instead
        of silently falling back."""
        assert constant_rate_interval_for(self.SPEC, 2.5) == 4


class TestTradeoffEstimatorComparability:
    """Regression for the ISSUE-5 anchor bug: every point of the
    trade-off sweep — the no-shaping anchor included — must call the
    MI estimator with one configuration (bias_correction=True)."""

    def test_all_points_use_bias_correction(self, monkeypatch):
        import repro.security.mutual_information as mi_module

        calls = []
        real = mi_module.windowed_rate_mi

        def recording(*args, **kwargs):
            calls.append(kwargs.get("bias_correction", False))
            return real(*args, **kwargs)

        # The one call site is ``gap_rate_mi``, which every point (the
        # anchor and the shaped points, run inline when jobs=1) reaches
        # through ``detect_report``.
        monkeypatch.setattr(mi_module, "windowed_rate_mi", recording)
        fast = dataclasses.replace(ExperimentDefaults(), accesses=600,
                                   cycles=6000)
        points = tradeoff_sweep("gcc", fast, scales=(0.8,), jobs=1)
        assert len(calls) == len(points)
        assert all(calls), "every MI estimate must be bias-corrected"


class TestFig2DuplicateRows:
    def test_apache_x0_8_and_x1_0_are_one_configuration(self):
        """Apache's ladder is too coarse to tell x0.8 from x1.0: at
        ``scaled(0.25)`` both budgets are granted the same three credits,
        so the two Fig 2 rows are one simulation with one digest, under
        their own labels and requested rates."""
        defaults = ExperimentDefaults().scaled(0.25)
        rows = {
            row["label"]: row
            for row in tradeoff_sweep("apache", defaults, scales=(0.8, 1.0))
        }
        low, high = rows["camo-x0.8"], rows["camo-x1.0"]
        assert low["granted_rate"] == high["granted_rate"] == 3 / 512
        assert low["requested_rate"] < high["requested_rate"]
        assert low["digest"] == high["digest"]
        assert low["mi"] == high["mi"]
        assert rows["no-shaping"]["granted_rate"] is None

    def test_five_scale_ladder_runs_one_task_per_configuration(self):
        # alone-base + cs + four distinct staircases (credit totals
        # 2/3/3/5/6 at scales 0.6/0.8/1.0/1.4/2.0).
        defaults = ExperimentDefaults().scaled(0.25)
        executor = SweepExecutor(jobs=1, seed=defaults.seed)
        rows = tradeoff_sweep("apache", defaults, executor=executor)
        assert executor.tasks_run == 6
        assert [
            round(row["granted_rate"] * LADDER_REPLENISH_PERIOD)
            for row in rows if row["label"].startswith("camo-")
        ] == [2, 3, 3, 5, 6]
        assert len({row["label"] for row in rows}) == len(rows) == 7


class TestDeriveResponseConfig:
    FAST = dataclasses.replace(ExperimentDefaults(), accesses=800,
                               cycles=8000)

    def test_rate_scale_shrinks_budget(self):
        full = derive_response_config(
            _mix_names("gcc", "astar"), 0, self.FAST, rate_scale=1.0
        )
        tight = derive_response_config(
            _mix_names("gcc", "astar"), 0, self.FAST, rate_scale=0.5
        )
        assert tight.total_credits < full.total_credits

    def test_valid_configuration(self):
        config = derive_response_config(
            _mix_names("gcc", "astar"), 0, self.FAST
        )
        assert config.num_bins == 10
        assert config.total_credits >= 1


class TestFig9Shape:
    def test_returns_both_curves(self):
        fast = dataclasses.replace(ExperimentDefaults(), accesses=800,
                                   cycles=8000)
        result = fig9_experiment("gcc", fast)
        assert set(result) == {
            "frfcfs_difference", "camouflage_difference", "baseline_total"
        }
        assert isinstance(result["frfcfs_difference"], np.ndarray)
        assert result["baseline_total"] > 0


class TestMixRecipe:
    """``run_alone`` is a one-program ``run_mix``: same trace seed and
    address slot, so the reports digest equally."""

    def test_run_alone_is_a_one_program_mix(self):
        assert report_digest(run_alone("gcc", FAST)) == report_digest(
            run_mix(["gcc"], FAST)
        )
        plan = RequestShapingPlan(STAIRCASE, FAST.spec)
        assert report_digest(
            run_alone("gcc", FAST, request_plan=plan, core_slot=2)
        ) == report_digest(
            run_mix(["gcc"], FAST, request_plans={0: plan}, slots=[2])
        )

    def test_slots_must_match_programs(self):
        with pytest.raises(ConfigurationError, match="slot"):
            build_mix(["gcc", "mcf"], FAST, slots=[0])


class TestPointCodec:
    """decode(encode(args)) builds and runs the machine ``run_mix``
    builds from the same arguments."""

    @pytest.mark.parametrize("names,machine", [
        (["gcc", "mcf"], {"request_plans": {1: RequestShapingPlan(
            STAIRCASE, FAST.spec, generate_fake=False)}}),
        (["gcc", "mcf"], {"scheduler": "tp",
                          "scheduler_kwargs": {"turn_length": 96}}),
        (["gcc", "mcf"], {"scheduler": "fs",
                          "scheduler_kwargs": {"interval": 20},
                          "bank_partitioning": True}),
        (["gcc"], {"noc_latency": 8}),
        (["gcc"], {"slots": [2]}),
    ], ids=["plans-no-fake", "tp", "fs-banks", "noc8", "slot2"])
    def test_round_trip(self, names, machine):
        payload = json.loads(json.dumps(encode_point(names, FAST, **machine)))
        assert report_digest(run_point(payload).report) == report_digest(
            run_mix(names, FAST, **machine)
        )

    def test_defaults_are_written_out(self):
        """Equal machines digest equally whether or not the caller
        spelled a default."""
        assert encode_point(["gcc"], FAST) == encode_point(
            ["gcc"], FAST, slots=[0], scheduler="frfcfs",
            scheduler_kwargs={}, spec=FAST.spec,
        )

    def test_rejects_plan_fields_it_cannot_carry(self):
        strict = RequestShapingPlan(STAIRCASE, FAST.spec, strict_binning=True)
        with pytest.raises(ConfigurationError, match="core 0"):
            encode_point(["gcc"], FAST, request_plans={0: strict})
        epoch = EpochShapingPlan(epoch_cycles=2048)
        with pytest.raises(ConfigurationError, match="EpochShapingPlan"):
            encode_point(["gcc"], FAST, request_plans={0: epoch})
        with pytest.raises(ConfigurationError, match="shadow"):
            encode_point(["gcc"], FAST, cycles=5)


class TestMalformedPayloads:
    """Malformed payloads fail typed, naming the field, before any
    simulation (ROADMAP aim 3)."""

    def test_missing_machine_field(self):
        with pytest.raises(ConfigurationError, match="spec_edges"):
            alone_base_task({"names": ["gcc"]})

    def test_unknown_field(self):
        payload = encode_point(["gcc"], FAST, core_slot=1)
        with pytest.raises(ConfigurationError, match="core_slot"):
            alone_base_task(payload)

    def test_null_seed(self):
        payload = encode_point(["gcc"], FAST)
        payload["seed"] = None
        with pytest.raises(ConfigurationError, match="seed"):
            alone_base_task(payload)

    def test_detect_needs_a_plan_before_the_run(self, monkeypatch):
        import repro.parallel.tasks as tasks

        def no_run(*args, **kwargs):
            raise AssertionError("simulated before validating")

        monkeypatch.setattr(tasks, "run_mix_system", no_run)
        payload = encode_point(
            ["gcc", "mcf"], FAST, alone_ipcs=[1.0, 1.0],
            detect={"core": 0},
        )
        with pytest.raises(ConfigurationError, match="request_plans"):
            mix_slowdown_task(payload)
