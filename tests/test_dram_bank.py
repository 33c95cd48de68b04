"""Unit tests for the per-bank state machine: every timing constraint."""

import pytest

from repro.common.errors import ProtocolError
from repro.dram.bank import Bank, BankState
from repro.dram.timing import DramTiming


@pytest.fixture
def bank(timing):
    return Bank(timing)


class TestActivate:
    def test_starts_precharged(self, bank):
        assert bank.state is BankState.PRECHARGED
        assert bank.open_row is None

    def test_activate_opens_row(self, bank):
        bank.activate(0, row=42)
        assert bank.state is BankState.ACTIVE
        assert bank.open_row == 42
        assert bank.is_row_hit(42)
        assert not bank.is_row_hit(43)

    def test_activate_on_active_bank_is_illegal(self, bank):
        bank.activate(0, row=1)
        with pytest.raises(ProtocolError):
            bank.activate(100, row=2)

    def test_trc_between_activates(self, bank, timing):
        """Same-bank ACT-to-ACT must respect tRC even via precharge."""
        bank.activate(0, row=1)
        bank.precharge(timing.tRAS)
        # tRP satisfied at tRAS + tRP == tRC; both gates align here.
        assert not bank.can_activate(timing.tRC - 1)
        bank.activate(timing.tRC, row=2)

    def test_activate_counts(self, bank, timing):
        bank.activate(0, row=1)
        bank.precharge(timing.tRAS)
        bank.activate(timing.tRC, row=2)
        assert bank.activate_count == 2


class TestColumnCommands:
    def test_read_before_trcd_is_illegal(self, bank, timing):
        bank.activate(0, row=1)
        assert not bank.can_column(timing.tRCD - 1, row=1)
        with pytest.raises(ProtocolError):
            bank.read(timing.tRCD - 1, row=1)

    def test_read_at_trcd(self, bank, timing):
        bank.activate(0, row=1)
        bank.read(timing.tRCD, row=1)
        assert bank.read_count == 1
        assert bank.row_hit_count == 1

    def test_read_leaves_row_open(self, bank, timing):
        bank.activate(0, row=5)
        bank.read(timing.tRCD, row=5)
        assert bank.state is BankState.ACTIVE
        assert bank.open_row == 5

    def test_read_wrong_row_is_illegal(self, bank, timing):
        bank.activate(0, row=1)
        with pytest.raises(ProtocolError):
            bank.read(timing.tRCD, row=2)

    def test_read_on_precharged_bank_is_illegal(self, bank):
        with pytest.raises(ProtocolError):
            bank.read(100, row=1)

    def test_tccd_between_column_commands(self, bank, timing):
        bank.activate(0, row=1)
        t = timing.tRCD
        bank.read(t, row=1)
        assert not bank.can_column(t + timing.tCCD - 1, row=1)
        bank.read(t + timing.tCCD, row=1)

    def test_write_then_read_same_bank(self, bank, timing):
        bank.activate(0, row=1)
        t = timing.tRCD
        bank.write(t, row=1)
        bank.read(t + timing.tCCD, row=1)
        assert bank.write_count == 1
        assert bank.read_count == 1


class TestPrecharge:
    def test_before_tras_is_illegal(self, bank, timing):
        bank.activate(0, row=1)
        assert not bank.can_precharge(timing.tRAS - 1)
        with pytest.raises(ProtocolError):
            bank.precharge(timing.tRAS - 1)

    def test_at_tras(self, bank, timing):
        bank.activate(0, row=1)
        bank.precharge(timing.tRAS)
        assert bank.state is BankState.PRECHARGED
        assert bank.open_row is None

    def test_read_delays_precharge_by_trtp(self, bank, timing):
        bank.activate(0, row=1)
        read_cycle = timing.tRAS  # late read pushes precharge past tRAS
        bank.read(read_cycle, row=1)
        assert not bank.can_precharge(read_cycle + timing.tRTP - 1)
        bank.precharge(read_cycle + timing.tRTP)

    def test_write_recovery_delays_precharge(self, bank, timing):
        bank.activate(0, row=1)
        write_cycle = timing.tRAS
        bank.write(write_cycle, row=1)
        earliest = write_cycle + timing.tCWL + timing.tBURST + timing.tWR
        assert not bank.can_precharge(earliest - 1)
        bank.precharge(earliest)

    def test_precharge_on_precharged_bank_is_illegal(self, bank):
        with pytest.raises(ProtocolError):
            bank.precharge(100)

    def test_activate_after_precharge_respects_trp(self, bank, timing):
        bank.activate(0, row=1)
        pre_cycle = timing.tRAS + 50  # late precharge, tRC long satisfied
        bank.precharge(pre_cycle)
        assert not bank.can_activate(pre_cycle + timing.tRP - 1)
        bank.activate(pre_cycle + timing.tRP, row=2)


class TestRefreshBlock:
    def test_blocks_activate_for_trfc(self, bank, timing):
        bank.force_refresh_block(0)
        assert not bank.can_activate(timing.tRFC - 1)
        bank.activate(timing.tRFC, row=1)

    def test_refresh_requires_precharged(self, bank):
        bank.activate(0, row=1)
        with pytest.raises(ProtocolError):
            bank.force_refresh_block(10)
