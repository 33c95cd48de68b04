"""Tests for multi-channel / multi-rank DRAM configurations.

The paper's Table II uses 1 channel × 1 rank × 8 banks; the model
supports more, and these tests exercise the cross-channel and
cross-rank independence properties the geometry implies.
"""

import pytest

from repro.dram.address import AddressMapping
from repro.dram.commands import CommandType
from repro.dram.organization import DramOrganization
from repro.dram.system import DramSystem
from repro.dram.timing import DramTiming
from repro.sim.system import SystemBuilder
from repro.workloads.spec import make_trace


@pytest.fixture
def wide_org():
    return DramOrganization(channels=2, ranks_per_channel=2,
                            banks_per_rank=8)


@pytest.fixture
def wide_dram(wide_org):
    return DramSystem(organization=wide_org, enable_refresh=False)


class TestGeometry:
    def test_bit_widths(self, wide_org):
        assert wide_org.channel_bits == 1
        assert wide_org.rank_bits == 1
        assert wide_org.total_banks == 32

    def test_decode_covers_all_channels_and_ranks(self, wide_org):
        mapping = AddressMapping(wide_org)
        seen_channels = set()
        seen_ranks = set()
        for address in range(0, 1 << 26, 64 * 129):
            d = mapping.decode(address)
            seen_channels.add(d.channel)
            seen_ranks.add(d.rank)
        assert seen_channels == {0, 1}
        assert seen_ranks == {0, 1}


class TestChannelIndependence:
    def test_command_buses_independent(self, wide_dram, wide_org):
        """Both channels may issue a command in the same cycle."""
        mapping = AddressMapping(wide_org)
        d0 = next(
            mapping.decode(a) for a in range(0, 1 << 20, 64)
            if mapping.decode(a).channel == 0
        )
        d1 = next(
            mapping.decode(a) for a in range(0, 1 << 20, 64)
            if mapping.decode(a).channel == 1
        )
        t0, t1 = wide_dram.target(d0), wide_dram.target(d1)
        assert wide_dram.can_issue(CommandType.ACTIVATE, t0, 0)
        wide_dram.issue(CommandType.ACTIVATE, t0, 0)
        # Same cycle, other channel: still legal.
        assert wide_dram.can_issue(CommandType.ACTIVATE, t1, 0)
        wide_dram.issue(CommandType.ACTIVATE, t1, 0)

    def test_same_channel_blocked_same_cycle(self, wide_dram, wide_org):
        mapping = AddressMapping(wide_org)
        addresses = [a for a in range(0, 1 << 22, 64)
                     if mapping.decode(a).channel == 0]
        d0 = mapping.decode(addresses[0])
        # Find a second channel-0 address on a different bank.
        d1 = next(
            mapping.decode(a) for a in addresses
            if mapping.decode(a).bank != d0.bank
            or mapping.decode(a).rank != d0.rank
        )
        wide_dram.issue(CommandType.ACTIVATE, wide_dram.target(d0), 0)
        assert not wide_dram.can_issue(
            CommandType.ACTIVATE, wide_dram.target(d1), 0
        )

    def test_data_buses_independent(self, wide_dram, wide_org, timing):
        mapping = AddressMapping(wide_org)
        per_channel = {0: None, 1: None}
        for a in range(0, 1 << 22, 64):
            d = mapping.decode(a)
            if per_channel[d.channel] is None:
                per_channel[d.channel] = d
        for d in per_channel.values():
            wide_dram.issue(CommandType.ACTIVATE, wide_dram.target(d), 0)
        t = timing.tRCD
        end0 = wide_dram.issue(
            CommandType.READ, wide_dram.target(per_channel[0]), t
        )
        end1 = wide_dram.issue(
            CommandType.READ, wide_dram.target(per_channel[1]), t
        )
        assert end0 == end1  # concurrent bursts, no shared-bus serialization


class TestRefreshPerRank:
    def test_each_rank_has_own_deadline(self, wide_org):
        dram = DramSystem(organization=wide_org, enable_refresh=True)
        due = dram.refresh_due(dram.timing.tREFI)
        assert set(due) == {(0, 0), (0, 1), (1, 0), (1, 1)}


class TestSystemOnWideDram:
    def test_full_system_runs_on_two_channels(self, wide_org):
        builder = SystemBuilder(seed=2)
        builder.with_dram(organization=wide_org)
        for i in range(2):
            builder.add_core(
                make_trace("gcc", 500, seed=i, base_address=i << 33)
            )
        report = builder.build().run(20000)
        assert all(c.retired_instructions > 0 for c in report.cores)
        assert report.row_hits + report.row_misses > 0

    def test_more_channels_reduce_contention(self):
        def latency(channels):
            builder = SystemBuilder(seed=2)
            builder.with_dram(
                organization=DramOrganization(channels=channels)
            )
            for i in range(4):
                builder.add_core(
                    make_trace("mcf", 2000, seed=i, base_address=i << 33)
                )
            report = builder.build().run(20000, stop_when_done=False)
            return sum(
                c.mean_memory_latency() for c in report.cores
            ) / report.num_cores

        assert latency(2) < latency(1)
