"""The simulator's import path stays free of numpy and http.server.

``import repro`` and a plain ``System.run`` never call numpy, and only
``repro serve`` needs the HTTP stack, so neither may load eagerly:
both are a fixed cost every short run would pay again.  The check runs
in a fresh interpreter because the test session itself (conftest,
plugins, earlier tests) has long since imported both.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROGRAM = """
import sys
import repro, repro.sim.columnar, repro.workloads
from repro import (
    BinSpec, RequestShapingPlan, ResponseShapingPlan, SystemBuilder,
    constant_rate_config,
)
from repro.sim.stats import report_digest
from repro.workloads import make_trace

config = constant_rate_config(BinSpec(), 512)
builder = SystemBuilder(seed=1)
for slot, name in enumerate(("mcf", "astar", "gcc", "apache")):
    builder.add_core(
        make_trace(name, 300, seed=slot, base_address=slot << 26),
        request_shaping=RequestShapingPlan(config),
        response_shaping=ResponseShapingPlan(config),
    )
report_digest(builder.build().run(5000))
print(sorted(m for m in ("numpy", "http.server") if m in sys.modules))
"""


def test_import_and_run_load_neither_numpy_nor_http_server():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, "-c", PROGRAM], env=env, capture_output=True,
        text=True, timeout=120, check=True,
    )
    assert result.stdout.strip() == "[]"


def test_metrics_server_still_resolves_from_repro_obs():
    import repro.obs
    from repro.obs import server

    assert repro.obs.MetricsServer is server.MetricsServer
    assert repro.obs.ServePublisher is server.ServePublisher
