"""Bounded grant traces on the NoC channels.

``grant_trace`` is the wire an adversary probes, so the security
benchmarks keep it in full — but on multi-million-cycle performance
runs an unbounded list exhausts memory.  ``trace_limit`` turns the
trace into a bounded ring of the most recent grants, wired through
``SystemBuilder.with_observability(noc_grant_trace_limit=...)`` and
defaulting to today's unbounded behavior.
"""

import warnings

import pytest

from repro.common.errors import ConfigurationError
from repro.memctrl.transaction import MemoryTransaction, TransactionType
from repro.noc.link import SharedLink
from repro.noc.mesh import MeshNetwork
from repro.sim.system import SystemBuilder
from repro.workloads import make_trace


def _txn(core_id=0, address=0):
    return MemoryTransaction(
        core_id=core_id,
        address=address,
        kind=TransactionType.READ,
        created_cycle=0,
    )


class TestSharedLinkTraceLimit:
    def test_trace_keeps_most_recent_grants(self):
        link = SharedLink(num_ports=1, latency=1, trace_limit=4)
        for cycle in range(10):
            link.inject(0, _txn(address=cycle))
            link.tick(cycle)
        assert link.total_grants == 10
        assert len(link.grant_trace) == 4
        assert [grant_cycle for grant_cycle, _, _ in link.grant_trace] == [
            6, 7, 8, 9
        ]

    def test_unbounded_by_default(self):
        link = SharedLink(num_ports=1, latency=1)
        for cycle in range(10):
            link.inject(0, _txn(address=cycle))
            link.tick(cycle)
        assert len(link.grant_trace) == 10

    def test_drain_trace_resets_and_stays_bounded(self):
        link = SharedLink(num_ports=1, latency=1, trace_limit=3)
        for cycle in range(5):
            link.inject(0, _txn(address=cycle))
            link.tick(cycle)
        drained = link.drain_trace()
        assert isinstance(drained, list)
        assert len(drained) == 3
        assert len(link.grant_trace) == 0
        for cycle in range(5, 12):
            link.inject(0, _txn(address=cycle))
            link.tick(cycle)
        assert len(link.grant_trace) == 3

    @pytest.mark.parametrize("limit", [0, -1])
    def test_invalid_limit_rejected(self, limit):
        with pytest.raises(ConfigurationError):
            SharedLink(num_ports=1, trace_limit=limit)
        with pytest.raises(ConfigurationError):
            MeshNetwork(num_ports=2, trace_limit=limit)
        with pytest.raises(ConfigurationError):
            SystemBuilder().with_observability(noc_grant_trace_limit=limit)


class TestMeshTraceLimit:
    def test_trace_bounded_over_deliveries(self):
        mesh = MeshNetwork(num_ports=2, trace_limit=5)
        for round_start in range(0, 120, 4):
            if mesh.can_inject(0):
                mesh.inject(0, _txn(core_id=0, address=round_start))
            for cycle in range(round_start, round_start + 4):
                mesh.tick(cycle)
                mesh.pop_arrivals(cycle)
        assert mesh.total_grants > 5
        assert len(mesh.grant_trace) == 5


class TestBuilderWiring:
    def _system(self, topology, trace_limit):
        builder = SystemBuilder(seed=3).with_noc(topology=topology)
        if trace_limit is not None:
            builder.with_observability(noc_grant_trace_limit=trace_limit)
        builder.add_core(make_trace("gcc", 200, seed=3))
        return builder.build()

    @pytest.mark.parametrize("topology", ["shared", "mesh"])
    def test_with_noc_passes_limit_to_both_directions(self, topology):
        system = self._system(topology, trace_limit=8)
        assert system.request_link.trace_limit == 8
        assert system.response_link.trace_limit == 8

    def test_default_stays_unbounded(self):
        system = self._system("shared", trace_limit=None)
        assert system.request_link.trace_limit is None
        assert isinstance(system.request_link.grant_trace, list)

    def test_bounded_growth_over_a_full_run(self):
        system = self._system("shared", trace_limit=16)
        system.run(30_000, stop_when_done=False)
        assert system.request_link.total_grants > 16
        assert len(system.request_link.grant_trace) == 16
        assert len(system.response_link.grant_trace) <= 16


class TestDeprecatedShim:
    """The ``with_noc(trace_limit=)`` shim is gone; ``with_noc`` itself
    is not deprecated."""

    def test_with_noc_without_limit_is_silent(self):
        builder = SystemBuilder(seed=3)
        builder.add_core(make_trace("gcc", 200, seed=3))
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            builder.with_noc(topology="shared")
