"""Columnar engine: engine-level contracts.

The broad bit-identity matrix lives in ``test_engine_equivalence.py``
(every fast case and the randomized slow sweeps run both engines) and
the fault/snapshot matrices in ``test_resilience_*``.  This file
covers what those cannot: the engine module's API surface itself and
snapshot digests across engines.
"""

import pytest

from repro.core.bins import BinSpec, constant_rate_config, uniform_config
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


@pytest.mark.slow
def test_long_run_snapshot_digests_match():
    """Checkpointed long runs digest identically across engines."""
    digests = set()
    for engine in ("cycle", "columnar"):
        report = _shaped_system(response=True).run(60_000, engine=engine)
        digests.add(report_digest(report))
    assert len(digests) == 1
