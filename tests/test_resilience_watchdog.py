"""Stall watchdog: seeded livelocks are caught, dumped and typed.

The canonical wedge is a permanent request-link stall injected by the
fault harness: requests pile up in shapers and the NoC, no instruction
retires, and the watchdog must abort with a
:class:`~repro.common.errors.WatchdogError` carrying a structured
diagnostic dump — at the *same* cycle under both engines.
"""

import json

import pytest

from repro.common.errors import SimulationError, WatchdogError
from repro.core.bins import BinConfiguration, BinSpec, uniform_config
from repro.resilience import LinkStall, ResilienceConfig, Watchdog
from repro.resilience.watchdog import diagnostic_dump
from repro.sim.system import (
    RequestShapingPlan,
    ResponseShapingPlan,
    SystemBuilder,
)
from repro.workloads import make_trace

SPEC = BinSpec()


def _stalled_system(dump_path="", watchdog_cycles=2_000, trace=False):
    config = uniform_config(SPEC, 2)
    builder = SystemBuilder(seed=11)
    builder.add_core(
        make_trace("gcc", 250, seed=11),
        request_shaping=RequestShapingPlan(config),
        response_shaping=ResponseShapingPlan(config),
    )
    builder.add_core(make_trace("mcf", 250, seed=12))
    if trace:
        builder.with_observability(trace=True, monitor=True)
    builder.with_resilience(
        ResilienceConfig(
            watchdog_cycles=watchdog_cycles,
            watchdog_dump_path=dump_path,
            faults=(LinkStall(start_cycle=1_000),),
        )
    )
    return builder.build()


class TestSeededLivelock:
    def test_caught_with_structured_dump(self):
        system = _stalled_system()
        with pytest.raises(WatchdogError) as excinfo:
            system.run(60_000)
        error = excinfo.value
        assert "no forward progress" in str(error)
        dump = error.dump
        assert dump["kind"] == "watchdog_dump"
        assert dump["stalled_for"] == 2_000
        assert dump["cycle"] == system.current_cycle
        # Every station of the pipeline is covered.
        assert {c["core_id"] for c in dump["cores"]} == {0, 1}
        assert "request_shaper" in dump["cores"][0]
        assert "credits" in dump["cores"][0]["request_shaper"]
        assert dump["memctrl"]["queue_capacity"] == 32
        assert "faults" in dump  # injector stats ride along
        assert dump["faults"]["stalls"] == [
            {"start_cycle": 1_000, "duration": None}
        ]
        json.dumps(dump)  # must be JSON-serialisable for CI artifacts

    def test_dump_file_written(self, tmp_path):
        dump_path = str(tmp_path / "dumps" / "stall.json")
        system = _stalled_system(dump_path=dump_path)
        with pytest.raises(WatchdogError) as excinfo:
            system.run(60_000)
        assert excinfo.value.dump_path == dump_path
        with open(dump_path, encoding="utf-8") as fh:
            on_disk = json.load(fh)
        assert on_disk == json.loads(json.dumps(excinfo.value.dump))

    def test_backward_compatible_with_simulation_error(self):
        with pytest.raises(SimulationError):
            _stalled_system().run(60_000)

    def test_same_abort_cycle_under_both_engines(self):
        cycles = {}
        for engine in ("cycle", "columnar"):
            with pytest.raises(WatchdogError) as excinfo:
                _stalled_system().run(60_000, engine=engine)
            cycles[engine] = excinfo.value.dump["cycle"]
        assert cycles["cycle"] == cycles["columnar"]

    @pytest.mark.parametrize("period, budget, trip", [
        (50_000, 255, 512),
        (50_000, 3_839, 4_096),
        (50_000, 4_000, 4_352),
        (65_536, 10_000, 10_496),
    ])
    def test_shaping_wedge_trips_at_one_cycle_under_both_engines(
        self, period, budget, trip
    ):
        """No fault injected: one credit per replenish period lets the
        first miss through and holds the next one, so the system idles
        with nothing due until the next replenish.  The columnar engine
        skips that span, and only the cap at the watchdog horizon makes
        it stop and check where the cycle engine does.

        The cycle engine sees the last progress at the end of its
        256-cycle block and trips at the first block end more than the
        budget later.  A budget of one block minus one needs only the
        cap; a larger one also needs the columnar engine to credit the
        progress its first capped landing reveals to that block end,
        and a horizon rounded up to a block end."""
        spec = BinSpec(edges=(1,), replenish_period=period)
        cycles = {}
        for engine in ("cycle", "columnar"):
            builder = SystemBuilder(seed=11)
            builder.add_core(
                make_trace("gcc", 250, seed=11),
                request_shaping=RequestShapingPlan(
                    BinConfiguration((1,)), spec=spec
                ),
            )
            with pytest.raises(WatchdogError) as excinfo:
                builder.build().run(
                    200_000, engine=engine, watchdog_cycles=budget
                )
            cycles[engine] = excinfo.value.dump["cycle"]
        assert cycles == {"cycle": trip, "columnar": trip}

    def test_stall_event_emitted(self):
        system = _stalled_system(trace=True)
        with pytest.raises(WatchdogError):
            system.run(60_000)
        names = [e.name for e in system.observability.tracer.events]
        assert "watchdog.stall" in names

    def test_transient_stall_recovers(self):
        """A bounded stall shorter than the budget must not trip."""
        config = uniform_config(SPEC, 2)
        builder = SystemBuilder(seed=13)
        builder.add_core(
            make_trace("gcc", 150, seed=13),
            request_shaping=RequestShapingPlan(config),
        )
        builder.with_resilience(
            ResilienceConfig(
                watchdog_cycles=5_000,
                faults=(LinkStall(start_cycle=1_000, duration=2_000),),
            )
        )
        report = builder.build().run(120_000)
        assert report.core(0).retired_instructions > 0


class TestWatchdogUnit:
    def _idle_system(self):
        builder = SystemBuilder(seed=3)
        builder.add_core(make_trace("gcc", 50, seed=3))
        return builder.build()

    def test_horizon_caps_skips_at_progress_deadline(self):
        dog = Watchdog(cycles=1_000)
        system = self._idle_system()
        dog.reset(system)
        # From cycle 0 with no progress, a skip may reach at most the
        # first block end after the stall budget expires...
        assert dog.horizon(0) == 1_024
        assert dog.horizon(900) == 1_024
        # ...and never goes backwards.
        assert dog.horizon(5_000) == 5_001

    def test_observe_rearms_on_progress(self):
        system = self._idle_system()
        dog = Watchdog(cycles=400)
        dog.reset(system)
        system.run(2_000, stop_when_done=False)  # progress happened
        assert sum(c.retired_instructions for c in system.cores) > 0
        dog.observe(system, before=1_999)  # re-arms instead of raising
        # Credited to the block end 2,048; the budget runs out at 2,448,
        # so the next check that may trip is at the block end 2,560.
        assert dog.limit == 2_560

    def test_disabled_by_run_argument(self):
        """watchdog_cycles=0 disables the check entirely."""
        system = _stalled_system(watchdog_cycles=0)
        report = system.run(30_000, stop_when_done=False)
        assert report.cycles_run == 30_000

    def test_run_argument_still_works_without_resilience(self):
        """The legacy ``run(watchdog_cycles=...)`` path is unchanged."""
        builder = SystemBuilder(seed=11)
        config = uniform_config(SPEC, 1)
        # A deliberately unserviceable shape: all credits in one huge
        # gap means the queue wedges once the single bin drains.
        builder.add_core(
            make_trace("gcc", 250, seed=11),
            request_shaping=RequestShapingPlan(config),
            response_shaping=ResponseShapingPlan(config),
        )
        system = builder.build()
        report = system.run(10_000, watchdog_cycles=0)
        assert report.cycles_run <= 10_000

    def test_diagnostic_dump_on_healthy_system(self):
        system = self._idle_system()
        system.run(500, stop_when_done=False)
        dump = diagnostic_dump(system)
        assert dump["cycle"] == 500
        assert dump["stalled_for"] == 0
        assert "faults" not in dump  # no injector wired
        json.dumps(dump)
