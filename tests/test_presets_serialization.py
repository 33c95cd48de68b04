"""Tests for config serialization and the system watchdog."""

import pytest

from repro.common.errors import ConfigurationError, SimulationError
from repro.core.bins import BinConfiguration, BinSpec
from repro.core.serialization import (
    config_from_dict,
    config_to_dict,
    load_config,
    save_config,
)


class TestSerialization:
    def test_round_trip_dict(self):
        spec = BinSpec()
        config = BinConfiguration((5,) * 10)
        spec2, config2 = config_from_dict(config_to_dict(spec, config))
        assert spec2 == spec
        assert config2 == config

    def test_round_trip_file(self, tmp_path):
        spec = BinSpec(edges=(1, 2, 4, 8), replenish_period=64)
        config = BinConfiguration((1, 2, 3, 4))
        path = tmp_path / "shape.json"
        save_config(spec, config, path)
        spec2, config2 = load_config(path)
        assert spec2.edges == (1, 2, 4, 8)
        assert config2.credits == (1, 2, 3, 4)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ConfigurationError):
            config_from_dict({
                "format": "repro-shaping-config-v1",
                "edges": [1, 2],
                "replenish_period": 64,
                "credits": [1, 2, 3],
            })

    def test_rejects_unknown_format(self):
        with pytest.raises(ConfigurationError):
            config_from_dict({"format": "v0", "edges": [1],
                              "replenish_period": 8, "credits": [1]})

    def test_rejects_missing_fields(self):
        with pytest.raises(ConfigurationError):
            config_from_dict({"format": "repro-shaping-config-v1"})

    def test_rejects_invalid_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError):
            load_config(path)

    def test_mismatched_spec_config_rejected_on_save(self):
        with pytest.raises(ConfigurationError):
            config_to_dict(BinSpec(), BinConfiguration((1, 2)))


class TestWatchdog:
    def test_deadlocked_shaping_raises(self):
        """A shaper that can never release must trip the watchdog, not
        spin forever."""
        from repro.core.request_shaper import RequestCamouflage
        from repro.core.shaper import BinShaper
        from repro.sim.system import RequestShapingPlan, SystemBuilder
        from repro.workloads.spec import make_trace

        # Top-bin-only credits with fakes disabled: once the first
        # release happens, a waiting request with small delta can
        # still go at delta>=512 — so to force a true deadlock we use
        # a monkeypatched shaper that never grants.
        builder = SystemBuilder(seed=1)
        builder.add_core(
            make_trace("mcf", 500),
            request_shaping=RequestShapingPlan(
                config=BinConfiguration((4,) * 10), generate_fake=False
            ),
        )
        system = builder.build()
        system.request_paths[0].shaper.can_release_real = lambda cycle: False
        with pytest.raises(SimulationError):
            system.run(100_000, stop_when_done=False, watchdog_cycles=5_000)

    def test_watchdog_quiet_on_healthy_run(self):
        from repro.sim.system import SystemBuilder
        from repro.workloads.spec import make_trace

        builder = SystemBuilder(seed=1)
        builder.add_core(make_trace("gcc", 300))
        report = builder.build().run(20_000, watchdog_cycles=2_000)
        assert report.core(0).retired_instructions > 0

    def test_watchdog_ignores_finished_cores(self):
        from repro.cpu.trace import MemoryTrace, TraceRecord
        from repro.sim.system import SystemBuilder

        builder = SystemBuilder(seed=1)
        builder.add_core(MemoryTrace([TraceRecord(0, 0)], name="one"))
        system = builder.build()
        # Long idle tail after completion must not trip the watchdog.
        system.run(30_000, stop_when_done=False, watchdog_cycles=2_000)
