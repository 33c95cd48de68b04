"""Fault-injection harness: every adversity ends typed or flagged.

The contract under test (docs/resilience.md): each injected fault class
ends in a **typed error**, or in **completion with its bound held** —
never a silent shaping violation — and fault runs stay bit-identical
across both execution engines (cycle, columnar).
"""

import pytest

from repro.common.errors import ConfigurationError, QueueOverflowError
from repro.common.rng import DeterministicRng
from repro.memctrl.queue import TransactionQueue
from repro.memctrl.transaction import MemoryTransaction, TransactionType
from repro.obs import EngineProfiler
from repro.resilience import (
    EpochBoundaryStress,
    FaultInjector,
    LinkStall,
    QueueSaturation,
    TrafficBurst,
    run_scenario,
    scenario_names,
)
from repro.resilience import scenarios

# -- canned scenarios ------------------------------------------------------


class TestScenarios:
    def test_names(self):
        assert scenario_names() == [
            "epoch-stress", "flood", "livelock", "malformed-trace",
            "saturate",
        ]

    def test_unknown_scenario(self):
        with pytest.raises(ConfigurationError, match="unknown scenario"):
            run_scenario("meteor-strike")

    def test_livelock_is_caught_typed(self, tmp_path):
        dump_path = str(tmp_path / "stall.json")
        result = run_scenario("livelock", cycles=20_000, dump_path=dump_path)
        assert result["outcome"] == "typed_error"
        assert result["error"] == "WatchdogError"
        assert result["dump_path"] == dump_path
        assert result["dump"]["faults"]["stalls"]

    def test_flood_is_flagged_by_monitor(self):
        result = run_scenario("flood")
        assert result["outcome"] == "flagged_violation"
        assert result["injected"] == 400
        assert result["violations"]

    def test_flood_readers_count_the_run_end_tail(self, monkeypatch):
        """The scenario JSON, the profiler rollup and the monitor's own
        count agree: each includes the run-end tail breach."""
        monitors = []

        def capture(system):
            monitors.append(system.observability.monitor)
            return monitors[-1]

        monkeypatch.setattr(scenarios, "_monitor", capture)
        result = run_scenario("flood")
        (monitor,) = monitors
        rollup = EngineProfiler().rollup(monitor=monitor)
        assert monitor.final_violations
        assert result["violations"][-1]["cycle"] == 60_000
        assert (
            len(result["violations"])
            == rollup["shaping"]["violations"]
            == monitor.violation_count
        )

    def test_flood_full_ticks_only_when_the_injector_is_due(
        self, monkeypatch
    ):
        """After the injector's full tick the columnar engine re-polls
        every horizon, so the injector runs again only at its own next
        event.  Without that re-poll every digest still matches (a full
        tick is always correct) but the engine full-ticks each cycle
        after the first burst: 29,000 of 30,000 instead of 9,752."""
        build = scenarios._shaped_system
        systems = []

        def profiled(*args, **kwargs):
            systems.append(build(*args, **kwargs))
            systems[-1].observability.profiler = EngineProfiler()
            return systems[-1]

        monkeypatch.setattr(scenarios, "_shaped_system", profiled)
        cycles = 30_000
        result = run_scenario("flood", cycles=cycles, engine="columnar")
        (system,) = systems
        assert result["cycles_run"] == cycles
        fallbacks = system.observability.profiler.full_tick_fallbacks
        assert 0 < fallbacks < cycles // 2

    def test_saturation_respects_queue_bound(self):
        result = run_scenario("saturate")
        assert result["outcome"] in ("completed", "typed_error")
        if result["outcome"] == "completed":
            assert result["injected"] == 300
            assert result["bound_held"] is True
            assert result["peak_queue_depth"] <= result["queue_capacity"]

    def test_epoch_stress_survives(self):
        result = run_scenario("epoch-stress")
        assert result == {
            "scenario": "epoch-stress",
            "outcome": "completed",
            "injected": 166,
            "cycles_run": 40_000,
            "epochs_elapsed": 19,
            "rate_changes": 19,
            "leakage_bound_bits": 49.11428751370197,
        }

    def test_malformed_trace_fails_typed_with_location(self):
        result = run_scenario("malformed-trace")
        assert result["outcome"] == "typed_error"
        assert result["error"] == "TraceFormatError"
        assert result["line"] == 3
        assert result["source"]

    @pytest.mark.parametrize(
        "name", ["livelock", "flood", "epoch-stress"]
    )
    def test_engine_equivalence(self, name):
        """Fault runs are deterministic and engine-invariant end to end."""
        cycles = 20_000
        slow = run_scenario(name, cycles=cycles, engine="cycle")
        fast = run_scenario(name, cycles=cycles, engine="columnar")
        assert slow == fast, f"columnar diverged on {name}"


# -- fault spec validation -------------------------------------------------


class TestSpecValidation:
    def test_burst_counts_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            TrafficBurst(count=0)
        with pytest.raises(ConfigurationError):
            TrafficBurst(per_cycle=-1)

    def test_saturation_counts_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            QueueSaturation(count=0)

    def test_stall_duration_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            LinkStall(duration=0)
        assert LinkStall(duration=None).end_cycle is None
        assert LinkStall(start_cycle=5, duration=3).end_cycle == 8

    def test_epoch_stress_fields_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            EpochBoundaryStress(epochs=0)
        with pytest.raises(ConfigurationError):
            EpochBoundaryStress(lead=0)

    def test_epoch_stress_requires_epoch_shaper(self):
        from repro.resilience import ResilienceConfig
        from repro.sim.system import SystemBuilder
        from repro.workloads import make_trace

        builder = SystemBuilder(seed=2)
        builder.add_core(make_trace("gcc", 100, seed=2))  # no epoch shaping
        builder.with_resilience(
            ResilienceConfig(faults=(EpochBoundaryStress(core_id=0),))
        )
        with pytest.raises(ConfigurationError, match="EpochRatePolicy"):
            builder.build().run(1_000)


class TestInjectorUnit:
    def _injector(self, *specs):
        return FaultInjector(specs, DeterministicRng(3))

    def test_link_stall_windows(self):
        injector = self._injector(LinkStall(start_cycle=10, duration=5))
        assert not injector.request_link_stalled(9)
        assert injector.request_link_stalled(10)
        assert injector.request_link_stalled(14)
        assert not injector.request_link_stalled(15)

    def test_next_event_pins_while_active(self):
        injector = self._injector(
            TrafficBurst(start_cycle=100, count=4, per_cycle=2)
        )
        # Before the burst: the start cycle is the next event...
        assert injector.next_event_cycle(0) == 100
        # ...during it: pinned to per-cycle stepping.
        assert injector.next_event_cycle(100) == 100
        assert injector.next_event_cycle(150) == 150

    def test_next_event_none_when_exhausted(self):
        injector = self._injector(
            TrafficBurst(start_cycle=0, count=1, per_cycle=1)
        )
        injector._bursts[0].remaining = 0
        assert injector.next_event_cycle(5) is None

    def test_stall_edges_are_events(self):
        injector = self._injector(LinkStall(start_cycle=10, duration=5))
        assert injector.next_event_cycle(0) == 10
        assert injector.next_event_cycle(10) == 10  # pinned while active
        assert injector.next_event_cycle(14) == 14
        assert injector.next_event_cycle(20) is None

    def test_stats_shape(self):
        injector = self._injector(LinkStall(start_cycle=1))
        stats = injector.stats()
        assert stats["specs"] == 1
        assert stats["stalls"] == [{"start_cycle": 1, "duration": None}]


# -- explicit queue-overflow semantics (satellite 2) -----------------------


def _txn(core_id=0, address=0x40, kind=TransactionType.FAKE_READ):
    return MemoryTransaction(
        core_id=core_id, address=address, kind=kind, created_cycle=0,
    )


class TestQueueOverflow:
    def test_transaction_queue_bound_is_loud(self):
        queue = TransactionQueue(capacity=2)
        queue.push(_txn())
        queue.push(_txn())
        assert queue.is_full
        with pytest.raises(QueueOverflowError) as excinfo:
            queue.push(_txn())
        assert excinfo.value.capacity == 2
        assert excinfo.value.depth == 2
        assert "backpressure" in str(excinfo.value)
        assert len(queue) == 2  # the failed push did not mutate state

    def test_overflow_is_protocol_error(self):
        from repro.common.errors import ProtocolError

        assert issubclass(QueueOverflowError, ProtocolError)
