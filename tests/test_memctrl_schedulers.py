"""Unit tests for the scheduling policies.

These drive schedulers directly against a DRAM model, checking both
performance behaviour (FR-FCFS row-hit preference) and the security
invariants of the baselines (TP turn isolation, FS constant service).
"""

import pytest

from repro.common.errors import ConfigurationError
from repro.dram.address import AddressMapping
from repro.dram.commands import CommandType
from repro.memctrl.controller import MemoryController
from repro.memctrl.queue import TransactionQueue
from repro.memctrl.schedulers import (
    FixedServiceScheduler,
    FrFcfsScheduler,
    PriorityFrFcfsScheduler,
    TemporalPartitioningScheduler,
)
from repro.memctrl.transaction import MemoryTransaction, TransactionType


@pytest.fixture
def mapping(organization):
    return AddressMapping(organization)


def make_txn(mapping, core=0, address=0, write=False):
    txn = MemoryTransaction(
        core_id=core,
        address=address,
        kind=TransactionType.WRITE if write else TransactionType.READ,
        created_cycle=0,
    )
    txn.decoded = mapping.decode(address)
    return txn


def open_row(dram, decoded, cycle=0):
    dram.issue(CommandType.ACTIVATE, dram.target(decoded), cycle)


class TestFrFcfs:
    def test_empty_queue_returns_none(self, dram):
        q = TransactionQueue()
        assert FrFcfsScheduler().select(q, dram, 100) is None

    def test_prefers_row_hit_over_older_miss(self, dram, mapping, timing):
        q = TransactionQueue()
        # Older transaction: bank 0 (closed). Younger: row hit on bank 1.
        miss = make_txn(mapping, core=0, address=0)
        hit_addr = 8192  # bank 1 in the default mapping
        hit = make_txn(mapping, core=1, address=hit_addr)
        open_row(dram, hit.decoded, 0)
        q.push(miss)
        q.push(hit)
        picked = FrFcfsScheduler().select(q, dram, timing.tRCD)
        assert picked is hit

    def test_oldest_wins_among_equals(self, dram, mapping):
        q = TransactionQueue()
        a = make_txn(mapping, core=0, address=0)
        b = make_txn(mapping, core=1, address=1 << 20)
        q.push(a)
        q.push(b)
        assert FrFcfsScheduler().select(q, dram, 0) is a

    def test_skips_unready_transactions(self, dram, mapping, timing):
        """A row conflict whose precharge is illegal is passed over."""
        q = TransactionQueue()
        base = make_txn(mapping, address=0)
        open_row(dram, base.decoded, 0)  # bank 0 open, tRAS running
        conflict_addr = 8192 * 8  # same bank, next row
        conflict = make_txn(mapping, core=0, address=conflict_addr)
        other = make_txn(mapping, core=1, address=8192)  # bank 1, closed
        q.push(conflict)
        q.push(other)
        # At tRRD the rank allows a new ACTIVATE (bank 1), but the
        # precharge of bank 0 still violates tRAS — so the younger
        # transaction must be chosen over the older conflicting one.
        assert timing.tRRD < timing.tRAS
        picked = FrFcfsScheduler().select(q, dram, timing.tRRD)
        assert picked is other


    def test_never_enqueued_transaction_is_picked_as_an_enqueued_one(
        self, dram, mapping, timing
    ):
        """A transaction built by hand resolves its bank on first use;
        cycle by cycle it is picked exactly as its twin that went
        through the controller's enqueue."""
        addresses = [0, 8192, 8192 * 8, 1 << 20]
        hand_txns = [make_txn(mapping, core=core, address=address)
                     for core, address in enumerate(addresses)]
        by_hand = TransactionQueue()
        for txn in hand_txns:
            by_hand.push(txn)
        assert all(t._target is None for t in hand_txns)
        mc = MemoryController(dram)
        for core, address in enumerate(addresses):
            mc.enqueue(make_txn(mapping, core=core, address=address), 0)
        open_row(dram, hand_txns[1].decoded, 0)
        sched = FrFcfsScheduler()
        for cycle in range(timing.tRCD + 3):
            hand = sched.select(by_hand, dram, cycle)
            queued = sched.select(mc.queue, dram, cycle)
            assert (hand is None) == (queued is None)
            if hand is not None:
                assert hand.address == queued.address
        assert sched.select(by_hand, dram, timing.tRCD) is hand_txns[1]
        assert all(t._target.bank is q._target.bank
                   for t, q in zip(by_hand, mc.queue))


class TestPriorityFrFcfs:
    def test_boost_wins_over_age(self, dram, mapping):
        sched = PriorityFrFcfsScheduler(num_cores=2)
        q = TransactionQueue()
        old = make_txn(mapping, core=0, address=0)
        boosted = make_txn(mapping, core=1, address=1 << 22)
        q.push(old)
        q.push(boosted)
        sched.add_boost(1, 2)
        assert sched.select(q, dram, 0) is boosted

    def test_boost_consumed_on_issue(self, dram, mapping):
        sched = PriorityFrFcfsScheduler(num_cores=2)
        sched.add_boost(1, 1)
        txn = make_txn(mapping, core=1)
        sched.on_issue(txn, 0)
        assert sched.boost_of(1) == 0

    def test_boost_preference_follows_every_grant_and_consumption(
        self, dram, mapping
    ):
        """select() skips the boosted pre-pass while no core holds a
        boost, so the boosted-core count must track add, set and
        consumption both ways."""
        sched = PriorityFrFcfsScheduler(num_cores=2)
        q = TransactionQueue()
        old = make_txn(mapping, core=0, address=0)
        other = make_txn(mapping, core=1, address=1 << 22)
        q.push(old)
        q.push(other)
        sched.add_boost(1, 1)
        assert sched.select(q, dram, 0) is other
        sched.on_issue(other, 0)
        assert sched.select(q, dram, 0) is old
        sched.set_boost(1, 2)
        sched.add_boost(1, 1)
        assert sched.select(q, dram, 0) is other
        sched.set_boost(1, 0)
        assert sched.select(q, dram, 0) is old
        sched.set_boost(0, 1)
        sched.set_boost(1, 1)
        sched.on_issue(old, 0)
        assert sched.select(q, dram, 0) is other

    def test_exhausted_boost_reverts_to_frfcfs(self, dram, mapping):
        sched = PriorityFrFcfsScheduler(num_cores=2)
        q = TransactionQueue()
        old = make_txn(mapping, core=0, address=0)
        other = make_txn(mapping, core=1, address=1 << 22)
        q.push(old)
        q.push(other)
        assert sched.select(q, dram, 0) is old

    def test_exclusive_mode_always_wins(self, dram, mapping):
        sched = PriorityFrFcfsScheduler(num_cores=2)
        sched.set_exclusive(1)
        q = TransactionQueue()
        old = make_txn(mapping, core=0, address=0)
        exclusive = make_txn(mapping, core=1, address=1 << 22)
        q.push(old)
        q.push(exclusive)
        assert sched.select(q, dram, 0) is exclusive

    def test_exclusive_idle_lets_others_run(self, dram, mapping):
        """No deadlock during profiling when the exclusive core idles."""
        sched = PriorityFrFcfsScheduler(num_cores=2)
        sched.set_exclusive(1)
        q = TransactionQueue()
        other = make_txn(mapping, core=0, address=0)
        q.push(other)
        assert sched.select(q, dram, 0) is other

    def test_exclusive_cleared(self, dram, mapping):
        sched = PriorityFrFcfsScheduler(num_cores=2)
        sched.set_exclusive(1)
        sched.set_exclusive(None)
        assert sched.exclusive_core is None

    def test_rejects_unknown_core(self):
        sched = PriorityFrFcfsScheduler(num_cores=2)
        with pytest.raises(ConfigurationError):
            sched.add_boost(5, 1)
        with pytest.raises(ConfigurationError):
            sched.set_exclusive(9)

    def test_rejects_negative_boost(self):
        sched = PriorityFrFcfsScheduler(num_cores=2)
        with pytest.raises(ConfigurationError):
            sched.add_boost(0, -1)


class TestTemporalPartitioning:
    def test_turn_rotation(self, dram):
        sched = TemporalPartitioningScheduler([0, 1, 2, 3], turn_length=100)
        assert sched.current_owner(0) == 0
        assert sched.current_owner(100) == 1
        assert sched.current_owner(399) == 3
        assert sched.current_owner(400) == 0

    def test_non_owner_never_selected(self, dram, mapping):
        """The TP security invariant: cross-domain isolation in a turn."""
        sched = TemporalPartitioningScheduler([0, 1], turn_length=200)
        q = TransactionQueue()
        q.push(make_txn(mapping, core=1, address=0))  # domain 1
        # Cycle 10 is inside domain 0's turn: nothing may be selected.
        assert sched.select(q, dram, 10) is None

    def test_owner_selected_in_its_turn(self, dram, mapping):
        sched = TemporalPartitioningScheduler([0, 1], turn_length=200)
        q = TransactionQueue()
        txn = make_txn(mapping, core=1, address=0)
        q.push(txn)
        assert sched.select(q, dram, 210) is txn

    def test_dead_time_blocks_turn_end(self, dram, mapping, timing):
        sched = TemporalPartitioningScheduler([0, 1], turn_length=200)
        q = TransactionQueue()
        q.push(make_txn(mapping, core=0, address=0))
        dead = timing.row_conflict_latency()
        assert sched.select(q, dram, 200 - dead) is None

    def test_explicit_dead_time(self, dram, mapping):
        sched = TemporalPartitioningScheduler(
            [0, 1], turn_length=200, dead_time=50
        )
        q = TransactionQueue()
        txn = make_txn(mapping, core=0, address=0)
        q.push(txn)
        assert sched.select(q, dram, 149) is txn
        assert sched.select(q, dram, 151) is None

    def test_shared_domain_cores_share_turns(self, dram, mapping):
        """Cores mapped to one security domain are scheduled together."""
        sched = TemporalPartitioningScheduler([0, 0, 1, 1], turn_length=100)
        assert sched.num_domains == 2
        q = TransactionQueue()
        txn = make_txn(mapping, core=1, address=0)
        q.push(txn)
        assert sched.select(q, dram, 10) is txn  # domain 0 owns turn 0

    def test_horizon_follows_turn_boundaries(self, dram, mapping, timing):
        """Turns of 100 cycles for domains 0/1/2 with the last 30 dead:
        domain 1 may be served in [100, 170), [400, 470), ..."""
        sched = TemporalPartitioningScheduler(
            [0, 1, 2], turn_length=100, dead_time=30
        )
        txn = make_txn(mapping, core=1, address=0)
        assert sched.next_event_cycle([], dram, 0) is None
        assert sched.next_event_cycle([txn], dram, 0) == 100
        assert sched.next_event_cycle([txn], dram, 100) == 100
        assert sched.next_event_cycle([txn], dram, 169) == 169
        assert sched.next_event_cycle([txn], dram, 170) == 400
        assert sched.next_event_cycle([txn], dram, 399) == 400
        # Two domains queued: the nearer live turn wins.
        other = make_txn(mapping, core=2, address=8192)
        assert sched.next_event_cycle([txn, other], dram, 170) == 200
        # DRAM readiness inside the turn: a conflicting open row must
        # first be precharged, tRAS after its activate.
        conflict = mapping.decode(1 << 20)
        assert conflict.bank == txn.decoded.bank
        assert conflict.row != txn.decoded.row
        open_row(dram, conflict, 110)
        assert sched.next_event_cycle([txn], dram, 111) == 110 + timing.tRAS
        # ...and one that is only met in the dead time waits a rotation.
        dram.issue(CommandType.PRECHARGE, dram.target(conflict),
                   110 + timing.tRAS)
        open_row(dram, conflict, 160)
        assert 170 <= 160 + timing.tRAS < 200
        assert sched.next_event_cycle([txn], dram, 161) == 400

    @pytest.mark.parametrize("dead_time", [None, 10])
    def test_horizon_is_first_selectable_cycle(self, dram, mapping,
                                               dead_time):
        """Against the definition: the first cycle select() picks."""
        sched = TemporalPartitioningScheduler(
            [0, 0, 1], turn_length=64, dead_time=dead_time
        )
        q = TransactionQueue()
        q.push(make_txn(mapping, core=2, address=0))
        q.push(make_txn(mapping, core=1, address=8192))
        open_row(dram, mapping.decode(1 << 20), 3)
        for cycle in range(0, 300, 7):
            first = next(
                c for c in range(cycle, cycle + 200)
                if sched.select(q, dram, c) is not None
            )
            assert sched.next_event_cycle(q, dram, cycle) == first

    def test_rejects_dead_time_longer_than_turn(self):
        with pytest.raises(ConfigurationError):
            TemporalPartitioningScheduler([0, 1], turn_length=50, dead_time=60)

    def test_rejects_empty_domains(self):
        with pytest.raises(ConfigurationError):
            TemporalPartitioningScheduler([])


class TestFixedService:
    def test_no_service_before_first_slot(self, dram, mapping):
        sched = FixedServiceScheduler(num_cores=2, interval=50)
        q = TransactionQueue()
        q.push(make_txn(mapping, core=0, address=0))
        assert sched.select(q, dram, 0) is None
        assert sched.next_slot_of(0) == 50

    def test_service_at_slot(self, dram, mapping):
        sched = FixedServiceScheduler(num_cores=2, interval=50)
        q = TransactionQueue()
        txn = make_txn(mapping, core=0, address=0)
        q.push(txn)
        assert sched.select(q, dram, 50) is txn

    def test_issue_advances_slot(self, dram, mapping):
        """FS security invariant: observable service rate <= 1/interval."""
        sched = FixedServiceScheduler(num_cores=2, interval=50)
        txn = make_txn(mapping, core=0)
        sched.on_issue(txn, 60)
        assert sched.next_slot_of(0) == 110

    def test_per_core_slots_independent(self, dram, mapping):
        sched = FixedServiceScheduler(num_cores=2, interval=50)
        sched.on_issue(make_txn(mapping, core=0), 60)
        q = TransactionQueue()
        other = make_txn(mapping, core=1, address=1 << 22)
        q.push(other)
        assert sched.select(q, dram, 100) is other

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            FixedServiceScheduler(num_cores=0)
        with pytest.raises(ConfigurationError):
            FixedServiceScheduler(num_cores=2, interval=0)
