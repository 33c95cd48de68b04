"""Columnar engine: engine-level contracts.

The broad bit-identity matrix lives in ``test_engine_equivalence.py``
(every fast case and the randomized slow sweeps run both engines) and
the fault/snapshot matrices in ``test_resilience_*``.  This file
covers what those cannot: the engine module's API surface itself and
snapshot digests across engines.
"""

import pytest

from repro.core.bins import BinSpec, constant_rate_config, uniform_config
from repro.dram.organization import DramOrganization
from repro.dram.timing import DramTiming
from repro.obs.events import CATEGORY_DRAM
from repro.obs.tracer import EventTracer
from repro.sim import ColumnarEngine
from repro.sim.columnar import run as run_engine
from repro.sim.stats import report_digest
from repro.sim.system import (
    RequestShapingPlan,
    ResponseShapingPlan,
    SystemBuilder,
)
from repro.workloads import make_trace

SPEC = BinSpec()


def _shaped_system(seed=11, response=False):
    builder = SystemBuilder(seed=seed)
    builder.add_core(
        make_trace("gcc", 200, seed=seed),
        request_shaping=RequestShapingPlan(uniform_config(SPEC, 2)),
        response_shaping=(
            ResponseShapingPlan(constant_rate_config(SPEC, 256))
            if response
            else None
        ),
    )
    builder.add_core(make_trace("astar", 200, seed=seed + 1))
    return builder.build()


# -- the engine object itself ---------------------------------------------


class TestColumnarEngine:
    def test_direct_api_matches_system_run(self):
        via_system = _shaped_system().run(20_000, engine="columnar")
        direct = run_engine(_shaped_system(), 20_000, engine="columnar")
        assert via_system == direct

    def test_report_digest_engine_invariant(self):
        digests = {
            report_digest(_shaped_system(response=True).run(
                20_000, engine=engine))
            for engine in ("cycle", "columnar")
        }
        assert len(digests) == 1

    def test_stop_when_done_false_runs_full_window(self):
        report = _shaped_system().run(
            12_000, engine="columnar", stop_when_done=False
        )
        assert report.cycles_run == 12_000

    def test_ledger_covers_every_station(self):
        engine = ColumnarEngine(_shaped_system(response=True))
        # 2 cores + 2 req paths + req link + controller + 2 resp paths
        # + resp link = 9 stations; the horizon list and the station
        # list must agree on the count.
        assert len(engine._stations) == 9
        assert len(engine._h) == 9


# -- refresh --------------------------------------------------------------

# Stepping every cycle from a rank's tREFI deadline until its REFRESH
# issues took this many steps on the machine below.
STEPPED_WHILE_REFRESH_WAS_STEPPED = 909


def _two_rank_system():
    builder = SystemBuilder(seed=5)
    for slot, name in enumerate(("sjeng", "h264ref")):
        # Bit 16 selects the rank: one program per rank.
        builder.add_core(
            make_trace(name, 300, seed=5 + slot, base_address=slot << 16)
        )
    builder.with_dram(organization=DramOrganization(ranks_per_channel=2))
    builder.with_observability(profile=True)
    system = builder.build()
    system.controller.dram.tracer = EventTracer(
        limit=1 << 16, categories=[CATEGORY_DRAM]
    )
    return system


def test_refresh_with_rows_open_on_two_ranks_is_skipped_exactly():
    """Three tREFI deadlines per rank, each met with rows open on both
    ranks of the channel: the columnar engine jumps to each refresh
    precharge and REFRESH rather than stepping the wait, and issues
    the same commands at the same cycles as the cycle engine."""
    runs = {}
    for engine in ("cycle", "columnar"):
        system = _two_rank_system()
        report = system.run(20_000, stop_when_done=False, engine=engine)
        log = [
            (event.cycle, event.name, dict(event.args)["rank"])
            for event in system.controller.dram.tracer.events_in(CATEGORY_DRAM)
        ]
        runs[engine] = (
            report_digest(report), log,
            system.observability.profiler.stepped_cycles,
        )
    assert runs["cycle"][:2] == runs["columnar"][:2]
    log = runs["cycle"][1]
    t_refi = DramTiming().tREFI
    deadline = {0: t_refi, 1: t_refi}
    refreshes = 0
    for cycle, name, rank in log:
        if name == "dram.REF":
            # Rows were open at the deadline: the REFRESH waited for
            # precharges of that rank.
            assert any(
                n == "dram.PRE" and r == rank and deadline[rank] <= c < cycle
                for c, n, r in log
            )
            deadline[rank] = cycle + t_refi
            refreshes += 1
    assert refreshes >= 6
    assert runs["columnar"][2] < STEPPED_WHILE_REFRESH_WAS_STEPPED


@pytest.mark.slow
def test_long_run_snapshot_digests_match():
    """Checkpointed long runs digest identically across engines."""
    digests = set()
    for engine in ("cycle", "columnar"):
        report = _shaped_system(response=True).run(60_000, engine=engine)
        digests.add(report_digest(report))
    assert len(digests) == 1
