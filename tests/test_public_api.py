"""Public-API consistency: __all__ names exist, modules import clean."""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.common",
    "repro.dram",
    "repro.memctrl",
    "repro.cache",
    "repro.noc",
    "repro.cpu",
    "repro.workloads",
    "repro.core",
    "repro.sim",
    "repro.security",
    "repro.ga",
    "repro.analysis",
    "repro.obs",
    "repro.lint",
    "repro.resilience",
]

MODULES = PACKAGES + [
    "repro.cli",
    "repro.obs.tracer",
    "repro.obs.metrics",
    "repro.obs.monitor",
    "repro.obs.hub",
    "repro.cpu.trace_io",
    "repro.core.epoch_shaper",
    "repro.ga.phase",
    "repro.noc.mesh",
    "repro.security.bounds",
    "repro.security.prober",
    "repro.sim.bandwidth",
    "repro.analysis.sweeps",
    "repro.workloads.phased",
    "repro.resilience.snapshot",
    "repro.resilience.watchdog",
    "repro.resilience.faults",
    "repro.resilience.scenarios",
    "repro.resilience.runtime",
]


@pytest.mark.parametrize("name", MODULES)
def test_module_imports(name):
    importlib.import_module(name)


@pytest.mark.parametrize("name", PACKAGES)
def test_dunder_all_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    if exported is None:
        pytest.skip(f"{name} declares no __all__")
    for symbol in exported:
        assert hasattr(module, symbol), f"{name}.__all__ lists missing {symbol}"


@pytest.mark.parametrize("name", PACKAGES)
def test_package_has_docstring(name):
    module = importlib.import_module(name)
    assert module.__doc__ and len(module.__doc__.strip()) > 40


def test_version_string():
    import repro

    assert repro.__version__.count(".") == 2
