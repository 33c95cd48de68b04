"""Unit tests for the top-level DRAM system model."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.address import AddressMapping, DecodedAddress
from repro.dram.commands import CommandType, DramCommand
from repro.dram.organization import DramOrganization
from repro.dram.system import DramSystem
from repro.dram.timing import DramTiming


@pytest.fixture
def mapping(organization):
    return AddressMapping(organization)


class TestRequiredCommand:
    def test_closed_bank_needs_activate(self, dram, mapping):
        d = mapping.decode(0)
        cmd = dram.required_command(d, is_write=False)
        assert cmd.kind is CommandType.ACTIVATE

    def test_open_row_needs_column(self, dram, mapping, timing):
        d = mapping.decode(0)
        dram.issue(DramCommand(CommandType.ACTIVATE, d), 0)
        assert dram.required_command(d, False).kind is CommandType.READ
        assert dram.required_command(d, True).kind is CommandType.WRITE

    def test_row_conflict_needs_precharge(self, dram, mapping, organization):
        d0 = mapping.decode(0)
        # Same bank, different row: one full bank stride of rows away.
        conflict_addr = organization.row_buffer_bytes * organization.banks_per_rank
        d1 = mapping.decode(conflict_addr)
        assert d0.bank == d1.bank and d0.row != d1.row
        dram.issue(DramCommand(CommandType.ACTIVATE, d0), 0)
        assert dram.required_command(d1, False).kind is CommandType.PRECHARGE


class TestCommandSequence:
    def test_full_read_sequence(self, dram, mapping, timing):
        """ACT → RD walks the constraint chain and returns data."""
        d = mapping.decode(4096)
        act = dram.required_command(d, False)
        assert dram.can_issue(act, 0)
        dram.issue(act, 0)
        rd = dram.required_command(d, False)
        assert rd.kind is CommandType.READ
        assert not dram.can_issue(rd, timing.tRCD - 1)
        end = dram.issue(rd, timing.tRCD)
        assert end == timing.tRCD + timing.tCAS + timing.tBURST

    def test_row_hit_tracking(self, dram, mapping, timing):
        d = mapping.decode(0)
        assert not dram.is_row_hit(d)
        dram.issue(DramCommand(CommandType.ACTIVATE, d), 0)
        assert dram.is_row_hit(d)
        assert dram.total_activates() == 1


# The memoised ready cycle is shared by both engines, so engine
# equivalence cannot see a stale entry, and neither can the uncached
# can_issue cross-check (an entry that is too late only delays a pick)
# or the command-trace validator.  Exact agreement with can_issue at
# every cycle can: it is the oracle for which entries each command
# invalidates.

ACCESSES = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=1),  # channel
        st.integers(min_value=0, max_value=1),  # rank
        st.integers(min_value=0, max_value=3),  # bank
        st.integers(min_value=0, max_value=2),  # row
        st.booleans(),  # write?
    ),
    min_size=2,
    max_size=8,
    unique=True,
)
STEPS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=7),  # which queued access
        st.integers(min_value=0, max_value=12),  # idle cycles first
    ),
    min_size=1,
    max_size=40,
)


# A short refresh interval, so REF and its precharges land inside a
# few hundred cycles.
MEMO_TIMING = DramTiming(tREFI=60, tRFC=20)


def assert_memo_exact(dram, queued, cycle):
    for a, w in queued:
        legal = dram.can_issue(dram.required_command(a, w), cycle)
        assert (dram.ready_cycle(a, w) <= cycle) == legal, (a, w, cycle)


def refresh_step(dram, queued, cycle):
    """One refresh command per due rank, the controller's way: close
    its open banks, then REFRESH; the memo is checked after each."""
    for channel, rank in dram.refresh_due(cycle):
        open_banks = dram.refresh_precharge_targets(channel, rank)
        kind = CommandType.PRECHARGE if open_banks else CommandType.REFRESH
        bank = open_banks[0] if open_banks else 0
        command = DramCommand(kind, DecodedAddress(channel, rank, bank, 0, 0))
        if dram.can_issue(command, cycle):
            dram.issue(command, cycle)
            assert_memo_exact(dram, queued, cycle)


class TestReadyCycleMemo:
    @settings(max_examples=120, deadline=None)
    @given(accesses=ACCESSES, steps=STEPS)
    def test_agrees_with_uncached_legality(self, accesses, steps):
        """Over a random legal command sequence on two channels of two
        ranks, with refresh, for every queued access
        at every cycle and after every command."""
        dram = DramSystem(
            timing=MEMO_TIMING,
            organization=DramOrganization(channels=2, ranks_per_channel=2),
            enable_refresh=True,
        )
        queued = [
            (DecodedAddress(channel=c, rank=r, bank=b, row=row, column=0), w)
            for c, r, b, row, w in accesses
        ]
        cycle = 0
        for pick, idle in steps:
            address, is_write = queued[pick % len(queued)]
            waited = 0
            while True:
                assert_memo_exact(dram, queued, cycle)
                refresh_step(dram, queued, cycle)
                command = dram.required_command(address, is_write)
                if (
                    waited >= idle
                    and (address.channel, address.rank)
                    not in dram.refresh_due(cycle)
                    and dram.can_issue(command, cycle)
                ):
                    break
                waited += 1
                cycle += 1
            dram.issue(command, cycle)
        assert_memo_exact(dram, queued, cycle)

    def test_dropping_only_the_issued_bank_is_caught(self, monkeypatch):
        """The property has teeth: an ACT moves the tRRD/tFAW gate of
        every bank in its rank, so a helper that invalidates only the
        issued bank leaves bank 1's ACT entry stale (too early)."""
        def issued_bank_only(self, kind, a):
            bank = self.channels[a.channel].ranks[a.rank].banks[a.bank]
            self._ready.pop(bank, None)

        monkeypatch.setattr(DramSystem, "_invalidate_ready", issued_bank_only)
        dram = DramSystem(enable_refresh=False)
        bank0 = DecodedAddress(channel=0, rank=0, bank=0, row=0, column=0)
        bank1 = DecodedAddress(channel=0, rank=0, bank=1, row=0, column=0)
        queued = [(bank0, False), (bank1, False)]
        assert_memo_exact(dram, queued, 0)  # fills bank 1's ACT entry
        dram.issue(DramCommand(CommandType.ACTIVATE, bank0), 0)
        act = dram.required_command(bank1, False)
        assert not dram.can_issue(act, 1)  # tRRD
        assert dram.ready_cycle(bank1, False) <= 1
        with pytest.raises(AssertionError):
            assert_memo_exact(dram, queued, 1)

    def test_memo_is_not_snapshot_state(self, dram, mapping):
        """It fills at different cycles under each engine."""
        before = pickle.dumps(dram)
        dram.ready_cycle(mapping.decode(0), False)
        assert pickle.dumps(dram) == before
        restored = pickle.loads(before)
        assert restored.ready_cycle(mapping.decode(0), False) == 0


class TestRefreshManagement:
    def test_no_refresh_when_disabled(self):
        dram = DramSystem(enable_refresh=False)
        assert dram.refresh_due(10**9) == []

    def test_refresh_due_after_trefi(self):
        dram = DramSystem(enable_refresh=True)
        assert dram.next_refresh == dram.timing.tREFI
        assert dram.refresh_due(dram.timing.tREFI - 1) == []
        assert dram.refresh_due(dram.timing.tREFI) == [(0, 0)]

    def test_refresh_issue_resets_deadline(self):
        dram = DramSystem(enable_refresh=True)
        t = dram.timing.tREFI
        from repro.dram.address import DecodedAddress

        ref = DramCommand(
            CommandType.REFRESH, DecodedAddress(0, 0, 0, 0, 0)
        )
        dram.issue(ref, t)
        assert dram.refresh_due(t) == []
        assert dram.refresh_due(2 * t) == [(0, 0)]
        assert dram.next_refresh == 2 * t

    def test_next_refresh_is_the_earliest_rank_deadline(self):
        dram = DramSystem(
            organization=DramOrganization(ranks_per_channel=2),
            enable_refresh=True,
        )
        t = dram.timing.tREFI
        ref = DramCommand(CommandType.REFRESH, DecodedAddress(0, 1, 0, 0, 0))
        dram.issue(ref, t + 3)
        assert dram.next_refresh == t  # rank 0 is still due first
        assert DramSystem(enable_refresh=False).next_refresh is None

    def test_precharge_targets_lists_open_banks(self, mapping):
        dram = DramSystem(enable_refresh=True)
        d = mapping.decode(0)
        dram.issue(DramCommand(CommandType.ACTIVATE, d), 0)
        assert dram.refresh_precharge_targets(0, 0) == [d.bank]


class TestStatistics:
    def test_data_bus_busy_cycles(self, dram, mapping, timing):
        d = mapping.decode(0)
        dram.issue(DramCommand(CommandType.ACTIVATE, d), 0)
        dram.issue(DramCommand(CommandType.READ, d), timing.tRCD)
        assert dram.data_bus_busy_cycles() == timing.tBURST

    def test_row_hits_counted_per_column_command(self, dram, mapping, timing):
        d = mapping.decode(0)
        dram.issue(DramCommand(CommandType.ACTIVATE, d), 0)
        dram.issue(DramCommand(CommandType.READ, d), timing.tRCD)
        dram.issue(DramCommand(CommandType.READ, d), timing.tRCD + timing.tCCD)
        assert dram.total_row_hits() == 2
