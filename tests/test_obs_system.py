"""System-level observability wiring: builder, tracer, sampler, monitor.

These tests drive the full stack — cores, shapers, NoC, controller,
DRAM — through ``SystemBuilder.with_observability`` and check that the
events, time-series and monitor checkpoints come out of a real run,
and that carrying the observability stack never perturbs the
simulation itself.
"""

import json

import pytest

from repro.common.errors import ConfigurationError
from repro.core.bins import BinSpec, uniform_config
from repro.obs import ObservabilityConfig
from repro.obs.tracer import NULL_TRACER
from repro.sim.system import (
    EpochShapingPlan,
    RequestShapingPlan,
    ResponseShapingPlan,
    SystemBuilder,
)
from repro.workloads import make_trace

SPEC = BinSpec()
CYCLES = 20_000


def _builder(epoch=False):
    config = uniform_config(SPEC, 2)
    builder = SystemBuilder(seed=11)
    builder.add_core(
        make_trace("gcc", 250, seed=11),
        request_shaping=(
            EpochShapingPlan() if epoch else RequestShapingPlan(config)
        ),
        response_shaping=None if epoch else ResponseShapingPlan(config),
    )
    builder.add_core(make_trace("astar", 250, seed=12))
    return builder


def _observed(epoch=False, **obs_kwargs):
    system = _builder(epoch=epoch).with_observability(**obs_kwargs).build()
    report = system.run(CYCLES)
    return system, report


class TestDisabledByDefault:
    def test_no_observability_state_without_opt_in(self):
        system = _builder().build()
        assert system.observability is None
        assert system.request_link.tracer is NULL_TRACER
        assert system.controller.tracer is NULL_TRACER

    def test_report_bit_identical_with_obs_attached(self):
        baseline = _builder().build().run(CYCLES, engine="cycle")
        _, observed = _observed(trace=True, sample_interval=1024,
                                monitor=True)
        assert observed == baseline

    def test_trace_off_system_emits_nothing(self):
        # sample-only config: components keep the NULL_TRACER.
        system, _ = _observed(sample_interval=1024)
        assert system.request_link.tracer is NULL_TRACER
        assert system.observability.tracer is NULL_TRACER


class TestTracing:
    def test_all_hardware_categories_observed(self):
        system, _ = _observed(trace=True)
        tracer = system.observability.tracer
        assert {"shaper", "memctrl", "dram", "noc"} <= set(tracer.counts)
        names = {e.name for e in tracer.events}
        assert "shaper.real_release" in names
        assert "shaper.replenish" in names
        assert "memctrl.enqueue" in names
        assert "memctrl.issue" in names
        assert "noc.grant" in names
        assert any(n.startswith("dram.") for n in names)

    def test_chrome_export_is_valid_and_complete(self):
        system, _ = _observed(trace=True)
        payload = json.loads(
            json.dumps(system.observability.tracer.to_chrome())
        )
        instants = [e for e in payload["traceEvents"] if e["ph"] == "i"]
        assert instants, "a shaped run must produce events"
        assert {e["cat"] for e in instants} >= {
            "shaper", "memctrl", "dram", "noc"
        }
        cycles = [e["ts"] for e in instants]
        assert all(isinstance(ts, int) and 0 <= ts < CYCLES
                   for ts in cycles)

    def test_ring_bound_respected(self):
        system, _ = _observed(trace=True, trace_limit=64)
        tracer = system.observability.tracer
        assert len(tracer.events) == 64
        assert tracer.dropped == tracer.total_emitted - 64

    def test_fake_injection_attributed_to_shaped_core(self):
        system, report = _observed(trace=True)
        fakes = [e for e in system.observability.tracer.events
                 if e.name == "shaper.fake_inject"]
        assert fakes, "uniform shaping must inject fakes"
        assert {e.core_id for e in fakes} == {0}
        assert report.core(0).fake_requests_sent > 0

    def test_epoch_shaper_events(self):
        system, _ = _observed(epoch=True, trace=True)
        events = system.observability.tracer.events
        assert "shaper.epoch_boundary" in {e.name for e in events}
        # Release events report the current interval's index in the
        # rate set as ``bin=``; the run starts at the slowest rate.
        rates = system.request_paths[0].shaper.rates
        releases = [
            e for e in events if e.core_id == 0
            and e.name in ("shaper.real_release", "shaper.fake_inject")
        ]
        assert releases
        assert releases[0].args_dict["bin"] == rates.num_rates - 1
        assert all(
            0 <= e.args_dict["bin"] < rates.num_rates for e in releases
        )
        # The unshaped core's stations stay silent.
        assert not [
            e for e in events if e.core_id == 1 and e.category == "shaper"
        ]


class TestSampling:
    def test_default_probe_set(self):
        system, _ = _observed(sample_interval=1024)
        sampler = system.observability.sampler
        assert "memctrl.queue_depth" in sampler.probe_names
        assert "core0.request_credits" in sampler.probe_names
        assert "core1.fake_fraction" in sampler.probe_names
        # Core 1 is unshaped: no credit register to probe.
        assert "core1.request_credits" not in sampler.probe_names

    def test_series_over_a_real_run(self):
        system, report = _observed(sample_interval=1024)
        sampler = system.observability.sampler
        series = sampler.series("noc.request_grants")
        assert [cycle for cycle, _ in series] == [
            1024 * (i + 1) for i in range(len(series))
        ]
        values = [value for _, value in series]
        assert values == sorted(values)  # cumulative counter
        assert values[-1] <= report.request_link_grants


class TestMonitoring:
    def test_shaped_streams_watched(self):
        system, _ = _observed(monitor=True, monitor_interval=2048)
        monitor = system.observability.monitor
        # core 0 request + response
        assert [row[:2] for row in monitor.summary_rows()] == [
            [0, "request"], [0, "response"],
        ]
        assert len(monitor.history) > 0
        latest = monitor.latest(0, "request")
        assert latest is not None
        assert latest.tvd_target is not None

    def test_conforming_request_stream_within_threshold(self):
        system, _ = _observed(monitor=True, monitor_interval=2048)
        latest = system.observability.monitor.latest(0, "request")
        # ReqC enforces the distribution by construction; by the end of
        # the run the shaped stream matches its target closely.
        assert latest.tvd_target < 0.25


class TestBuilderValidation:
    def test_config_and_kwargs_exclusive(self):
        config = ObservabilityConfig(trace=True)
        with pytest.raises(ConfigurationError):
            SystemBuilder().with_observability(config, trace=True)

    def test_config_object_accepted(self):
        system = (
            _builder()
            .with_observability(ObservabilityConfig(sample_interval=512))
            .build()
        )
        assert system.observability.sampler.interval == 512

    @pytest.mark.parametrize("kwargs", [
        {"trace_limit": 0},
        {"sample_interval": -1},
        {"noc_grant_trace_limit": 0},
        {"sample_interval": 0},
    ])
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ObservabilityConfig(**kwargs)


class TestSummary:
    def test_summary_reflects_enabled_facilities(self):
        system, _ = _observed(trace=True, sample_interval=1024,
                              monitor=True)
        obs = system.observability
        assert obs.tracer.total_emitted > 0
        assert obs.sampler.samples
        assert obs.monitor.history
        assert obs.metrics.as_dict()["monitor.checkpoints"] > 0
