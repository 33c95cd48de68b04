"""Channel-level rules, through the device: the command bus and the
data bus (burst spacing, tRTRS), on one channel of two ranks."""

import pytest

from repro.common.errors import ProtocolError
from repro.dram.address import DecodedAddress
from repro.dram.commands import CommandType
from repro.dram.organization import DramOrganization
from repro.dram.system import DramSystem
from repro.dram.timing import DramTiming

ACT, RD, WR, REF = (
    CommandType.ACTIVATE,
    CommandType.READ,
    CommandType.WRITE,
    CommandType.REFRESH,
)


@pytest.fixture
def dram(timing):
    return DramSystem(
        timing=timing,
        organization=DramOrganization(ranks_per_channel=2),
        enable_refresh=False,
    )


def at(dram, rank, bank, row=1):
    return dram.target(DecodedAddress(0, rank, bank, row, 0))


class TestCommandBus:
    def test_one_command_per_cycle(self, dram):
        dram.issue(ACT, at(dram, 0, 0), 0)
        # Second command in the same cycle must fail, even to another rank.
        assert dram.ready_cycle(at(dram, 1, 0)) == 1
        assert not dram.can_issue(ACT, at(dram, 1, 0), 0)
        with pytest.raises(ProtocolError):
            dram.issue(ACT, at(dram, 1, 0), 0)

    def test_free_next_cycle(self, dram):
        dram.issue(ACT, at(dram, 0, 0), 0)
        assert dram.can_issue(ACT, at(dram, 1, 0), 1)
        dram.issue(ACT, at(dram, 1, 0), 1)


class TestDataBus:
    def test_read_returns_burst_end(self, dram, timing):
        dram.issue(ACT, at(dram, 0, 0), 0)
        end = dram.issue(RD, at(dram, 0, 0), timing.tRCD)
        assert end == timing.tRCD + timing.tCAS + timing.tBURST

    def test_write_returns_burst_end(self, dram, timing):
        dram.issue(ACT, at(dram, 0, 0), 0)
        end = dram.issue(WR, at(dram, 0, 0), timing.tRCD)
        assert end == timing.tRCD + timing.tCWL + timing.tBURST

    def test_back_to_back_reads_separated_by_tccd(self, dram, timing):
        """tCCD >= tBURST keeps consecutive bursts from overlapping."""
        dram.issue(ACT, at(dram, 0, 0), 0)
        t = timing.tRCD
        end1 = dram.issue(RD, at(dram, 0, 0), t)
        end2 = dram.issue(RD, at(dram, 0, 0), t + timing.tCCD)
        assert end2 - end1 == timing.tCCD

    def test_data_bus_conflict_blocks_second_read(self):
        """Two banks row-open: reads separated less than tBURST conflict."""
        slow = DramTiming(tCCD=1, burst_length=8)  # tBURST=4 > tCCD
        dram = DramSystem(timing=slow, enable_refresh=False)
        dram.issue(ACT, at(dram, 0, 0), 0)
        dram.issue(ACT, at(dram, 0, 1), slow.tRRD)
        t = slow.tRRD + slow.tRCD
        dram.issue(RD, at(dram, 0, 0), t)
        # Next cycle the command bus and bank 1 are ready, the data bus
        # is not.
        assert dram.ready_cycle(at(dram, 0, 1)) == t + slow.tBURST
        assert not dram.can_issue(RD, at(dram, 0, 1), t + 1)
        assert dram.can_issue(RD, at(dram, 0, 1), t + slow.tBURST)

    def test_rank_switch_penalty(self, dram, timing):
        """Bursts from different ranks need an extra tRTRS gap."""
        dram.issue(ACT, at(dram, 0, 0), 0)
        dram.issue(ACT, at(dram, 1, 0), timing.tRRD)
        t = timing.tRRD + timing.tRCD
        dram.issue(RD, at(dram, 0, 0), t)
        same_rank_ok = t + timing.tCCD
        # Same-rank read would be fine at tCCD; other-rank needs tRTRS more.
        assert not dram.can_issue(RD, at(dram, 1, 0), same_rank_ok)
        assert dram.can_issue(RD, at(dram, 1, 0), same_rank_ok + timing.tRTRS)

    def test_busy_cycles_accumulate(self, dram, timing):
        dram.issue(ACT, at(dram, 0, 0), 0)
        dram.issue(RD, at(dram, 0, 0), timing.tRCD)
        dram.issue(RD, at(dram, 0, 0), timing.tRCD + timing.tCCD)
        assert dram.data_bus_busy_cycles() == 2 * timing.tBURST


class TestRefreshOnChannel:
    def test_refresh_uses_command_bus(self, dram):
        dram.issue(REF, at(dram, 0, 0), 0)
        assert not dram.can_issue(ACT, at(dram, 1, 0), 0)
        assert dram.can_issue(ACT, at(dram, 1, 0), 1)

    def test_can_refresh_requires_quiet_rank(self, dram):
        dram.issue(ACT, at(dram, 0, 0), 0)
        assert not dram.can_issue(REF, at(dram, 0, 0), 5)
