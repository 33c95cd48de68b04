"""Unit tests for the top-level DRAM system model."""

import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dram.address import AddressMapping, DecodedAddress
from repro.dram.commands import CommandType
from repro.dram.organization import DramOrganization
from repro.dram.system import DramSystem
from repro.dram.timing import DramTiming
from repro.memctrl.transaction import MemoryTransaction, TransactionType


@pytest.fixture
def mapping(organization):
    return AddressMapping(organization)


def required(dram, address, is_write=False):
    return dram.required_kind(dram.target(address, is_write))


class TestRequiredCommand:
    def test_closed_bank_needs_activate(self, dram, mapping):
        d = mapping.decode(0)
        assert required(dram, d, is_write=False) is CommandType.ACTIVATE

    def test_open_row_needs_column(self, dram, mapping, timing):
        d = mapping.decode(0)
        dram.issue(CommandType.ACTIVATE, dram.target(d), 0)
        assert required(dram, d, False) is CommandType.READ
        assert required(dram, d, True) is CommandType.WRITE

    def test_row_conflict_needs_precharge(self, dram, mapping, organization):
        d0 = mapping.decode(0)
        # Same bank, different row: one full bank stride of rows away.
        conflict_addr = organization.row_buffer_bytes * organization.banks_per_rank
        d1 = mapping.decode(conflict_addr)
        assert d0.bank == d1.bank and d0.row != d1.row
        dram.issue(CommandType.ACTIVATE, dram.target(d0), 0)
        assert required(dram, d1, False) is CommandType.PRECHARGE


class TestCommandSequence:
    def test_full_read_sequence(self, dram, mapping, timing):
        """ACT → RD walks the constraint chain and returns data."""
        target = dram.target(mapping.decode(4096))
        act = dram.required_kind(target)
        assert dram.can_issue(act, target, 0)
        dram.issue(act, target, 0)
        rd = dram.required_kind(target)
        assert rd is CommandType.READ
        assert not dram.can_issue(rd, target, timing.tRCD - 1)
        end = dram.issue(rd, target, timing.tRCD)
        assert end == timing.tRCD + timing.tCAS + timing.tBURST

    def test_row_hit_tracking(self, dram, mapping, timing):
        target = dram.target(mapping.decode(0))
        assert target.bank.open_row != target.row
        dram.issue(CommandType.ACTIVATE, target, 0)
        assert target.bank.open_row == target.row
        assert dram.total_activates() == 1


# Readiness is shared by both engines, so engine equivalence cannot
# see a term it gets wrong, and neither can the command-trace
# validator nor issue()'s own check (a ready cycle that is too late
# only delays a pick).  Exact agreement with the legality predicate,
# which checks each rule on its own register, at every cycle can.

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
REFRESH_TIMING = DramTiming(tREFI=60, tRFC=20)


def queue_accesses(dram, accesses):
    """Transactions for (channel, rank, bank, row, write) tuples,
    resolved the way the controller's enqueue resolves them."""
    queued = []
    for c, r, b, row, w in accesses:
        txn = MemoryTransaction(
            core_id=0, address=0, created_cycle=0,
            kind=TransactionType.WRITE if w else TransactionType.READ,
        )
        txn.decoded = DecodedAddress(channel=c, rank=r, bank=b, row=row, column=0)
        txn.resolve(dram)
        queued.append(txn)
    return queued


def assert_readiness_exact(dram, queued, cycle):
    """Readiness through each transaction's target (what the
    schedulers read) against legality of the command its address
    needs, resolved afresh and checked on the live registers."""
    for txn in queued:
        truth = dram.target(txn.decoded, txn.is_write)
        legal = dram.can_issue(dram.required_kind(truth), truth, cycle)
        ready = dram.ready_cycle(txn._target)
        assert (ready <= cycle) == legal, (txn.decoded, txn.is_write, cycle)


def refresh_step(dram, queued, cycle):
    """One refresh command per due rank, the controller's way: close
    its open banks, then REFRESH; readiness is checked after each."""
    for channel, rank in dram.refresh_due(cycle):
        open_banks = dram.refresh_precharge_targets(channel, rank)
        kind = CommandType.PRECHARGE if open_banks else CommandType.REFRESH
        bank = open_banks[0] if open_banks else 0
        target = dram.target(DecodedAddress(channel, rank, bank, 0, 0))
        if dram.can_issue(kind, target, cycle):
            dram.issue(kind, target, cycle)
            assert_readiness_exact(dram, queued, cycle)


# Five banks of one rank activated back to back: the fifth ACTIVATE
# falls inside the first one's tFAW window (4·tRRD < tFAW), which the
# random accesses, on four banks, never reach (tRC > tFAW).
TFAW_EXAMPLE = dict(
    accesses=[(0, 0, bank, 0, False) for bank in range(5)],
    steps=[(bank, 0) for bank in range(5)],
)


class TestReadiness:
    """Readiness read live from the device registers (``ready_cycle``)
    against the legality predicate (``can_issue``)."""

    @settings(max_examples=120, deadline=None)
    @given(accesses=ACCESSES, steps=STEPS)
    @example(**TFAW_EXAMPLE)
    def test_agrees_with_uncached_legality(self, accesses, steps):
        """Over a random legal command sequence on two channels of two
        ranks, with refresh, for every queued access
        at every cycle and after every command; the example binds the
        tFAW window."""
        dram = DramSystem(
            timing=REFRESH_TIMING,
            organization=DramOrganization(channels=2, ranks_per_channel=2),
            enable_refresh=True,
        )
        queued = queue_accesses(dram, accesses)
        cycle = 0
        for pick, idle in steps:
            txn = queued[pick % len(queued)]
            target = txn._target
            waited = 0
            while True:
                assert_readiness_exact(dram, queued, cycle)
                refresh_step(dram, queued, cycle)
                kind = dram.required_kind(target)
                if (
                    waited >= idle
                    and (txn.decoded.channel, txn.decoded.rank)
                    not in dram.refresh_due(cycle)
                    and dram.can_issue(kind, target, cycle)
                ):
                    break
                waited += 1
                cycle += 1
            dram.issue(kind, target, cycle)
        assert_readiness_exact(dram, queued, cycle)

    def test_readiness_ignoring_the_tfaw_window_is_caught(self, monkeypatch):
        """The property has teeth: after four ACTIVATEs tRRD apart, a
        fifth waits for the tFAW window, which readiness reads from the
        rank's ACT gate; a gate holding only tRRD lets it go early."""
        real = DramSystem.ready_cycle
        timing = DramTiming()

        def trrd_only(self, target):
            rank = target.rank
            gate = rank._next_activate_rank
            rank._next_activate_rank = rank._activate_history[-1] + timing.tRRD
            try:
                return real(self, target)
            finally:
                rank._next_activate_rank = gate

        monkeypatch.setattr(DramSystem, "ready_cycle", trrd_only)
        dram = DramSystem(timing=timing, enable_refresh=False)
        queued = queue_accesses(dram, [(0, 0, b, 0, False) for b in range(5)])
        for bank in range(4):
            dram.issue(CommandType.ACTIVATE, queued[bank]._target,
                       bank * timing.tRRD)
        fifth = 4 * timing.tRRD
        assert fifth < timing.tFAW
        assert not dram.can_issue(CommandType.ACTIVATE, queued[4]._target, fifth)
        with pytest.raises(AssertionError):
            assert_readiness_exact(dram, queued[4:], fifth)

    def test_readiness_dropping_trtrs_is_caught(self, monkeypatch):
        """A READ to the other rank right after a burst waits tRTRS on
        the data bus; readiness that sees no rank switch is early."""
        real = DramSystem.ready_cycle

        def no_rank_switch(self, target):
            channel = target.channel
            last = channel._last_data_rank
            channel._last_data_rank = target.rank_index
            try:
                return real(self, target)
            finally:
                channel._last_data_rank = last

        monkeypatch.setattr(DramSystem, "ready_cycle", no_rank_switch)
        dram = DramSystem(
            organization=DramOrganization(ranks_per_channel=2),
            enable_refresh=False,
        )
        timing = dram.timing
        rank0, rank1 = queued = queue_accesses(
            dram, [(0, 0, 0, 0, False), (0, 1, 0, 0, False)]
        )
        dram.issue(CommandType.ACTIVATE, rank0._target, 0)
        dram.issue(CommandType.ACTIVATE, rank1._target, 1)
        t = 1 + timing.tRCD
        dram.issue(CommandType.READ, rank0._target, t)
        switch = t + timing.tBURST
        assert not dram.can_issue(CommandType.READ, rank1._target, switch)
        assert dram.can_issue(CommandType.READ, rank1._target,
                              switch + timing.tRTRS)
        with pytest.raises(AssertionError):
            assert_readiness_exact(dram, queued, switch)

    def test_a_target_on_the_neighbouring_bank_is_caught(self, monkeypatch):
        """The property reads readiness through the resolved target, so
        a resolve that lands on the next bank fails it: bank 0's row is
        open (READ waits for tRCD) while bank 1 may ACTIVATE after tRRD."""
        def neighbouring_bank(txn, dram):
            a = txn.decoded
            txn._target = dram.target(
                DecodedAddress(a.channel, a.rank, a.bank + 1, a.row, a.column),
                txn.is_write,
            )
            return txn._target

        monkeypatch.setattr(MemoryTransaction, "resolve", neighbouring_bank)
        dram = DramSystem(enable_refresh=False)
        queued = queue_accesses(dram, [(0, 0, 0, 0, False)])
        dram.issue(
            CommandType.ACTIVATE,
            dram.target(DecodedAddress(0, 0, 0, 0, 0)), 0,
        )
        timing = dram.timing
        assert timing.tRRD < timing.tRCD
        with pytest.raises(AssertionError):
            for cycle in range(timing.tRCD + 1):
                assert_readiness_exact(dram, queued, cycle)

    def test_readiness_queries_write_no_state(self, dram, mapping):
        """The engines ask at different cycles; only issue() moves the
        device, so a snapshot never depends on who asked when."""
        before = pickle.dumps(dram)
        target = dram.target(mapping.decode(0))
        assert dram.ready_cycle(target) == 0
        assert dram.can_issue(CommandType.ACTIVATE, target, 0)
        assert pickle.dumps(dram) == before


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
        ref = dram.target(DecodedAddress(0, 0, 0, 0, 0))
        dram.issue(CommandType.REFRESH, ref, t)
        assert dram.refresh_due(t) == []
        assert dram.refresh_due(2 * t) == [(0, 0)]
        assert dram.next_refresh == 2 * t

    def test_next_refresh_is_the_earliest_rank_deadline(self):
        dram = DramSystem(
            organization=DramOrganization(ranks_per_channel=2),
            enable_refresh=True,
        )
        t = dram.timing.tREFI
        ref = dram.target(DecodedAddress(0, 1, 0, 0, 0))
        dram.issue(CommandType.REFRESH, ref, t + 3)
        assert dram.next_refresh == t  # rank 0 is still due first
        assert DramSystem(enable_refresh=False).next_refresh is None

    def test_precharge_targets_lists_open_banks(self, mapping):
        dram = DramSystem(enable_refresh=True)
        d = mapping.decode(0)
        dram.issue(CommandType.ACTIVATE, dram.target(d), 0)
        assert dram.refresh_precharge_targets(0, 0) == [d.bank]

    def test_refresh_horizon_is_the_next_step_of_a_pending_rank(self, mapping):
        """Open banks: the first precharge allowed; all closed: the
        last bank's ACT gate; a rank not pending: its deadline."""
        timing = DramTiming()
        dram = DramSystem(
            timing=timing,
            organization=DramOrganization(ranks_per_channel=2),
            enable_refresh=True,
        )
        bank0 = dram.target(DecodedAddress(0, 0, 0, 0, 0))
        bank1 = dram.target(DecodedAddress(0, 0, 1, 0, 0))
        dram.issue(CommandType.ACTIVATE, bank0, 0)
        dram.issue(CommandType.ACTIVATE, bank1, timing.tRRD)
        pending = {(0, 0)}
        assert dram.refresh_horizon(pending) == timing.tRAS
        dram.issue(CommandType.PRECHARGE, bank0, timing.tRAS)
        assert dram.refresh_horizon(pending) == timing.tRRD + timing.tRAS
        dram.issue(CommandType.PRECHARGE, bank1, timing.tRRD + timing.tRAS)
        # Both closed: REFRESH once the later ACT gate opens (tRC or
        # tRP after the precharge, whichever is later).
        assert dram.refresh_horizon(pending) == max(
            timing.tRRD + timing.tRC, timing.tRRD + timing.tRAS + timing.tRP
        )
        # Rank 1, idle, waits only for the command bus; rank 0, not
        # pending now, counts with its tREFI deadline.
        bus_free = timing.tRRD + timing.tRAS + 1
        assert dram.refresh_horizon({(0, 1)}) == min(bus_free, timing.tREFI)


class TestStatistics:
    def test_data_bus_busy_cycles(self, dram, mapping, timing):
        d = mapping.decode(0)
        dram.issue(CommandType.ACTIVATE, dram.target(d), 0)
        dram.issue(CommandType.READ, dram.target(d), timing.tRCD)
        assert dram.data_bus_busy_cycles() == timing.tBURST

    def test_row_hits_counted_per_column_command(self, dram, mapping, timing):
        d = mapping.decode(0)
        dram.issue(CommandType.ACTIVATE, dram.target(d), 0)
        dram.issue(CommandType.READ, dram.target(d), timing.tRCD)
        dram.issue(CommandType.READ, dram.target(d), timing.tRCD + timing.tCCD)
        assert dram.total_row_hits() == 2
