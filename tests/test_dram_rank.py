"""Rank-level timing rules, through the device: tRRD, tFAW, tWTR and
refresh, on the one rank of eight banks."""

import pytest

from repro.common.errors import ProtocolError
from repro.dram.address import DecodedAddress
from repro.dram.commands import CommandType

ACT, PRE, RD, WR, REF = (
    CommandType.ACTIVATE,
    CommandType.PRECHARGE,
    CommandType.READ,
    CommandType.WRITE,
    CommandType.REFRESH,
)


def at(dram, bank, row=1):
    """Bank ``bank`` of the one rank, addressed at ``row``."""
    return dram.target(DecodedAddress(0, 0, bank, row, 0))


class TestTrrd:
    def test_activates_to_different_banks_respect_trrd(self, dram, timing):
        dram.issue(ACT, at(dram, 0), 0)
        assert not dram.can_issue(ACT, at(dram, 1), timing.tRRD - 1)
        dram.issue(ACT, at(dram, 1), timing.tRRD)

    def test_trrd_violation_raises(self, dram, timing):
        dram.issue(ACT, at(dram, 0), 0)
        with pytest.raises(ProtocolError):
            dram.issue(ACT, at(dram, 1), timing.tRRD - 1)


class TestTfaw:
    def test_fifth_activate_waits_for_window(self, dram, timing):
        """At most four ACTIVATEs per rolling tFAW window."""
        cycle = 0
        for bank in range(4):
            dram.issue(ACT, at(dram, bank), cycle)
            cycle += timing.tRRD
        # Four activates issued within tFAW; the fifth must wait until
        # the first one (cycle 0) ages out.
        earliest = dram.ready_cycle(at(dram, 4))
        assert earliest >= timing.tFAW
        assert not dram.can_issue(ACT, at(dram, 4), timing.tFAW - 1)
        dram.issue(ACT, at(dram, 4), max(earliest, timing.tFAW))

    def test_slow_activates_unconstrained_by_tfaw(self, dram, timing):
        """Activates spaced wider than tFAW/4 never hit the limit."""
        gap = timing.tFAW  # ultra-conservative spacing
        for i, bank in enumerate(range(5)):
            dram.issue(ACT, at(dram, bank), i * gap)
        assert at(dram, 4).bank.open_row == 1


class TestTwtr:
    def test_read_after_write_waits_twtr(self, dram, timing):
        dram.issue(ACT, at(dram, 0, row=1), 0)
        dram.issue(ACT, at(dram, 1, row=2), timing.tRRD)
        t = timing.tRRD + timing.tRCD
        dram.issue(WR, at(dram, 0, row=1), t)
        blocked_until = t + timing.tCWL + timing.tBURST + timing.tWTR
        # A read to ANY bank of the rank is blocked.
        assert not dram.can_issue(RD, at(dram, 1, row=2), blocked_until - 1)
        dram.issue(RD, at(dram, 1, row=2), blocked_until)

    def test_write_after_write_not_blocked_by_twtr(self, dram, timing):
        dram.issue(ACT, at(dram, 0), 0)
        t = timing.tRCD
        dram.issue(WR, at(dram, 0), t)
        assert dram.can_issue(WR, at(dram, 0), t + timing.tCCD)

    def test_read_violating_twtr_raises(self, dram, timing):
        dram.issue(ACT, at(dram, 0), 0)
        t = timing.tRCD
        dram.issue(WR, at(dram, 0), t)
        with pytest.raises(ProtocolError):
            dram.issue(RD, at(dram, 0), t + timing.tCCD)


class TestRefresh:
    def test_refresh_requires_all_banks_precharged(self, dram, timing):
        dram.issue(ACT, at(dram, 0), 0)
        assert not dram.can_issue(REF, at(dram, 0), timing.tRCD)
        with pytest.raises(ProtocolError):
            dram.issue(REF, at(dram, 0), timing.tRCD)

    def test_refresh_blocks_every_bank(self, dram, timing):
        dram.issue(REF, at(dram, 0), 0)
        assert dram.channels[0].ranks[0].refresh_count == 1
        for bank_index in range(8):
            assert not dram.can_issue(ACT, at(dram, bank_index), timing.tRFC - 1)

    def test_refresh_after_trfc_allows_activates(self, dram, timing):
        dram.issue(REF, at(dram, 0), 0)
        dram.issue(ACT, at(dram, 0), timing.tRFC)
        assert at(dram, 0).bank.open_row == 1


class TestAllBanksPrecharged:
    """What refresh waits for: no bank of the rank left open."""

    def test_initially_true(self, dram):
        assert dram.refresh_precharge_targets(0, 0) == []

    def test_false_with_open_row(self, dram):
        dram.issue(ACT, at(dram, 3, row=9), 0)
        assert dram.refresh_precharge_targets(0, 0) == [3]

    def test_true_again_after_precharge(self, dram, timing):
        dram.issue(ACT, at(dram, 3, row=9), 0)
        dram.issue(PRE, at(dram, 3, row=9), timing.tRAS)
        assert dram.refresh_precharge_targets(0, 0) == []
