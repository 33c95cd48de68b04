"""Per-bank timing rules, through the device: tRC, tRCD, tCCD, tRAS,
tRTP, write recovery, tRP and the tRFC refresh block."""

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


def at(dram, row=1):
    """Bank 0 of the one rank, addressed at ``row``."""
    return dram.target(DecodedAddress(0, 0, 0, row, 0))


class TestActivate:
    def test_starts_precharged(self, dram):
        assert at(dram).bank.open_row is None
        assert dram.required_kind(at(dram)) is ACT

    def test_activate_opens_row(self, dram):
        dram.issue(ACT, at(dram, 42), 0)
        assert at(dram).bank.open_row == 42
        assert dram.required_kind(at(dram, 42)) is RD
        assert dram.required_kind(at(dram, 43)) is PRE

    def test_activate_on_active_bank_is_illegal(self, dram):
        dram.issue(ACT, at(dram, 1), 0)
        assert not dram.can_issue(ACT, at(dram, 2), 100)
        with pytest.raises(ProtocolError):
            dram.issue(ACT, at(dram, 2), 100)

    def test_trc_between_activates(self, dram, timing):
        """Same-bank ACT-to-ACT must respect tRC even via precharge."""
        dram.issue(ACT, at(dram, 1), 0)
        dram.issue(PRE, at(dram, 1), timing.tRAS)
        # tRP satisfied at tRAS + tRP == tRC; both gates align here.
        assert not dram.can_issue(ACT, at(dram, 2), timing.tRC - 1)
        dram.issue(ACT, at(dram, 2), timing.tRC)

    def test_activate_counts(self, dram, timing):
        dram.issue(ACT, at(dram, 1), 0)
        dram.issue(PRE, at(dram, 1), timing.tRAS)
        dram.issue(ACT, at(dram, 2), timing.tRC)
        assert at(dram).bank.activate_count == 2


class TestColumnCommands:
    def test_read_before_trcd_is_illegal(self, dram, timing):
        dram.issue(ACT, at(dram), 0)
        assert not dram.can_issue(RD, at(dram), timing.tRCD - 1)
        with pytest.raises(ProtocolError):
            dram.issue(RD, at(dram), timing.tRCD - 1)

    def test_read_at_trcd(self, dram, timing):
        dram.issue(ACT, at(dram), 0)
        dram.issue(RD, at(dram), timing.tRCD)
        assert at(dram).bank.read_count == 1
        assert at(dram).bank.row_hit_count == 1

    def test_read_leaves_row_open(self, dram, timing):
        dram.issue(ACT, at(dram, 5), 0)
        dram.issue(RD, at(dram, 5), timing.tRCD)
        assert at(dram).bank.open_row == 5
        assert dram.required_kind(at(dram, 5)) is RD

    def test_read_wrong_row_is_illegal(self, dram, timing):
        dram.issue(ACT, at(dram, 1), 0)
        with pytest.raises(ProtocolError):
            dram.issue(RD, at(dram, 2), timing.tRCD)

    def test_read_on_precharged_bank_is_illegal(self, dram):
        with pytest.raises(ProtocolError):
            dram.issue(RD, at(dram), 100)

    def test_tccd_between_column_commands(self, dram, timing):
        dram.issue(ACT, at(dram), 0)
        t = timing.tRCD
        dram.issue(RD, at(dram), t)
        assert not dram.can_issue(RD, at(dram), t + timing.tCCD - 1)
        dram.issue(RD, at(dram), t + timing.tCCD)

    def test_write_then_read_same_bank(self, dram, timing):
        """tCCD allows the READ earlier; the rank's tWTR gate is later."""
        dram.issue(ACT, at(dram), 0)
        t = timing.tRCD
        dram.issue(WR, at(dram), t)
        assert timing.tCWL + timing.tBURST + timing.tWTR > timing.tCCD
        dram.issue(RD, at(dram), t + timing.tCWL + timing.tBURST + timing.tWTR)
        assert at(dram).bank.write_count == 1
        assert at(dram).bank.read_count == 1


class TestPrecharge:
    def test_before_tras_is_illegal(self, dram, timing):
        dram.issue(ACT, at(dram), 0)
        assert not dram.can_issue(PRE, at(dram), timing.tRAS - 1)
        with pytest.raises(ProtocolError):
            dram.issue(PRE, at(dram), timing.tRAS - 1)

    def test_at_tras(self, dram, timing):
        dram.issue(ACT, at(dram), 0)
        dram.issue(PRE, at(dram), timing.tRAS)
        assert at(dram).bank.open_row is None
        assert dram.required_kind(at(dram)) is ACT

    def test_read_delays_precharge_by_trtp(self, dram, timing):
        dram.issue(ACT, at(dram), 0)
        read_cycle = timing.tRAS  # late read pushes precharge past tRAS
        dram.issue(RD, at(dram), read_cycle)
        assert not dram.can_issue(PRE, at(dram), read_cycle + timing.tRTP - 1)
        dram.issue(PRE, at(dram), read_cycle + timing.tRTP)

    def test_write_recovery_delays_precharge(self, dram, timing):
        dram.issue(ACT, at(dram), 0)
        write_cycle = timing.tRAS
        dram.issue(WR, at(dram), write_cycle)
        earliest = write_cycle + timing.tCWL + timing.tBURST + timing.tWR
        assert not dram.can_issue(PRE, at(dram), earliest - 1)
        dram.issue(PRE, at(dram), earliest)

    def test_precharge_on_precharged_bank_is_illegal(self, dram):
        with pytest.raises(ProtocolError):
            dram.issue(PRE, at(dram), 100)

    def test_activate_after_precharge_respects_trp(self, dram, timing):
        dram.issue(ACT, at(dram, 1), 0)
        pre_cycle = timing.tRAS + 50  # late precharge, tRC long satisfied
        dram.issue(PRE, at(dram, 1), pre_cycle)
        assert not dram.can_issue(ACT, at(dram, 2), pre_cycle + timing.tRP - 1)
        dram.issue(ACT, at(dram, 2), pre_cycle + timing.tRP)


class TestRefreshBlock:
    def test_blocks_activate_for_trfc(self, dram, timing):
        dram.issue(REF, at(dram), 0)
        assert not dram.can_issue(ACT, at(dram), timing.tRFC - 1)
        dram.issue(ACT, at(dram), timing.tRFC)

    def test_refresh_requires_precharged(self, dram):
        dram.issue(ACT, at(dram), 0)
        with pytest.raises(ProtocolError):
            dram.issue(REF, at(dram), 10)
