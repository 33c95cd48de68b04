"""numpy loads only where a number is scored.

A plain ``System.run`` never calls numpy, nor do ``repro run``,
``repro list``, ``repro fig13`` or the Fig 13 GA (``bdc_comparison``
with ``tune=True``): only a computed leakage number, covert decode or
bandwidth series does, so every module imports numpy inside the
functions that use it (docs/performance.md § "Fixed costs").  Loaded
eagerly it is a fixed cost every short run would pay again.  The
checks run in a fresh interpreter because the test session itself
(conftest, plugins, earlier tests) has long since imported it.
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
print("numpy" in sys.modules)
"""

#: The CLI, the experiment drivers and the sweep tasks import without
#: numpy, and the Fig 13 GA and ``repro run`` score nothing; the first
#: zoo score then loads it, so the probe cannot pass vacuously.
SCORING_PROGRAM = """
import contextlib, io, sys
import repro.cli, repro.analysis.experiments, repro.parallel.tasks
from repro.analysis.experiments import ExperimentDefaults, bdc_comparison
from repro.ga.online import TunerConfig

tuner = TunerConfig(
    epoch_cycles=200, profile_cycles=100, settle_cycles=50,
    population_size=4, generations=1,
)
bdc_comparison("gcc", "mcf", ExperimentDefaults(seed=1).scaled(0.02),
               tune=True, tuner_config=tuner)
with contextlib.redirect_stdout(io.StringIO()):
    assert repro.cli.main(["--scale", "0.05", "run"]) == 0
print("numpy" in sys.modules)

from repro.core.bins import BinSpec
from repro.security.detect import detect_report
gaps = [20, 40, 80, 160] * 40
detect_report("probe", gaps, gaps[::-1], BinSpec(), None, seed=1)
print("numpy" in sys.modules)
"""


def _fresh_interpreter(program: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, "-c", program], env=env, capture_output=True,
        text=True, timeout=120, check=True,
    )
    return result.stdout


def test_import_and_run_do_not_load_numpy():
    assert _fresh_interpreter(PROGRAM).strip() == "False"


def test_cli_and_fig13_load_numpy_only_at_the_first_score():
    assert _fresh_interpreter(SCORING_PROGRAM).split() == ["False", "True"]

