"""Edge-case tests for the system layer."""

import pytest

from repro.common.errors import ConfigurationError, SimulationError
from repro.core.bins import BinConfiguration, BinSpec
from repro.cpu.trace import MemoryTrace, TraceRecord
from repro.sim.system import (
    RequestShapingPlan,
    ResponseShapingPlan,
    SystemBuilder,
)
from repro.workloads.spec import make_trace


def tiny_trace(n=5):
    return MemoryTrace(
        [TraceRecord(2, i * 8192) for i in range(n)], name="tiny"
    )


class TestEmptyAndTinyWorkloads:
    def test_empty_trace_core_is_done_immediately(self):
        builder = SystemBuilder()
        builder.add_core(MemoryTrace([], name="empty"))
        system = builder.build()
        report = system.run(100)
        assert system.all_cores_done()
        assert report.core(0).retired_instructions == 0

    def test_single_access_trace(self):
        builder = SystemBuilder()
        builder.add_core(MemoryTrace([TraceRecord(0, 0)], name="one"))
        system = builder.build()
        system.run(5000)
        assert system.all_cores_done()
        assert system.delivered_count(0) == 1

    def test_compute_only_after_first_line(self):
        """A trace that reuses one line needs exactly one fill."""
        trace = MemoryTrace(
            [TraceRecord(100, 0x40) for _ in range(20)], name="hot"
        )
        builder = SystemBuilder()
        builder.add_core(trace)
        system = builder.build()
        system.run(10_000)
        assert system.all_cores_done()
        assert system.delivered_count(0) == 1


class TestRunSemantics:
    def test_stop_when_done_halts_early(self):
        builder = SystemBuilder()
        builder.add_core(tiny_trace())
        system = builder.build()
        system.run(100_000, stop_when_done=True)
        assert system.current_cycle < 100_000

    def test_report_is_idempotent(self):
        builder = SystemBuilder()
        builder.add_core(tiny_trace())
        system = builder.build()
        system.run(2000)
        a = system.report()
        b = system.report()
        assert a.core(0).ipc == b.core(0).ipc
        assert a.cycles_run == b.cycles_run

    def test_zero_cycle_run_rejected(self):
        builder = SystemBuilder()
        builder.add_core(tiny_trace())
        with pytest.raises(SimulationError):
            builder.build().run(0)

    def test_run_after_done_is_stable(self):
        builder = SystemBuilder()
        builder.add_core(tiny_trace())
        system = builder.build()
        system.run(20_000)
        retired = system.cores[0].retired_instructions
        system.run(1000, stop_when_done=False)
        assert system.cores[0].retired_instructions == retired


class TestMixedShapingTopologies:
    def test_shaped_and_unshaped_cores_coexist(self):
        spec = BinSpec()
        builder = SystemBuilder(seed=3)
        builder.add_core(
            make_trace("gcc", 400),
            request_shaping=RequestShapingPlan(
                config=BinConfiguration((3,) * 10), spec=spec
            ),
        )
        builder.add_core(make_trace("astar", 400, base_address=1 << 33))
        report = builder.build().run(20_000, stop_when_done=False)
        assert report.core(0).fake_requests_sent > 0
        assert report.core(1).fake_requests_sent == 0

    def test_bdc_single_core(self):
        spec = BinSpec()
        config = BinConfiguration((3,) * 10)
        builder = SystemBuilder(seed=3)
        builder.add_core(
            make_trace("gcc", 300),
            request_shaping=RequestShapingPlan(config=config, spec=spec),
            response_shaping=ResponseShapingPlan(config=config, spec=spec),
        )
        report = builder.build().run(15_000, stop_when_done=False)
        assert report.core(0).retired_instructions > 0

    def test_sixteen_cores_need_enough_banks(self):
        builder = SystemBuilder().with_bank_partitioning()
        for i in range(16):
            builder.add_core(tiny_trace())
        with pytest.raises(ConfigurationError):
            builder.build()


class TestDeterminismAcrossRuns:
    def test_identical_builders_identical_reports(self):
        def run():
            builder = SystemBuilder(seed=99)
            builder.add_core(
                make_trace("apache", 500, seed=1),
                request_shaping=RequestShapingPlan(
                    config=BinConfiguration((4,) * 10)
                ),
            )
            builder.add_core(make_trace("mcf", 500, seed=2,
                                        base_address=1 << 33))
            return builder.build().run(12_000, stop_when_done=False)

        a, b = run(), run()
        for core in range(2):
            assert a.core(core).ipc == b.core(core).ipc
            assert (
                a.core(core).request_shaped.counts
                == b.core(core).request_shaped.counts
            )
            assert a.core(core).memory_latencies == b.core(core).memory_latencies
