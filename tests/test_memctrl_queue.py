"""Unit tests for the transaction queue and transaction records."""

import pytest

from repro.common.errors import ConfigurationError, ProtocolError
from repro.memctrl.queue import TransactionQueue
from repro.memctrl.transaction import MemoryTransaction, TransactionType


def make_txn(core=0, address=0, kind=TransactionType.READ, cycle=0):
    return MemoryTransaction(
        core_id=core, address=address, kind=kind, created_cycle=cycle
    )


class TestQueueBasics:
    def test_empty_on_creation(self):
        q = TransactionQueue(4)
        assert q.is_empty and not q.is_full and len(q) == 0

    def test_push_and_len(self):
        q = TransactionQueue(4)
        q.push(make_txn())
        assert len(q) == 1 and not q.is_empty

    def test_full_at_capacity(self):
        q = TransactionQueue(2)
        q.push(make_txn())
        q.push(make_txn())
        assert q.is_full

    def test_push_into_full_raises(self):
        q = TransactionQueue(1)
        q.push(make_txn())
        with pytest.raises(ProtocolError):
            q.push(make_txn())

    def test_rejects_bad_capacity(self):
        with pytest.raises(ConfigurationError):
            TransactionQueue(0)


class TestOrderingAndRemoval:
    def test_iteration_is_arrival_order(self):
        q = TransactionQueue(8)
        txns = [make_txn(core=i) for i in range(5)]
        for t in txns:
            q.push(t)
        assert [t.core_id for t in q] == [0, 1, 2, 3, 4]

    def test_remove_preserves_order_of_rest(self):
        q = TransactionQueue(8)
        txns = [make_txn(core=i) for i in range(4)]
        for t in txns:
            q.push(t)
        q.remove(txns[1])
        assert [t.core_id for t in q] == [0, 2, 3]

    def test_remove_missing_raises(self):
        q = TransactionQueue(4)
        with pytest.raises(ProtocolError):
            q.remove(make_txn())

    def test_count_for_core(self):
        q = TransactionQueue(8)
        for core in (0, 1, 0, 2, 0):
            q.push(make_txn(core=core))
        assert q.count_for_core(0) == 3
        assert q.count_for_core(1) == 1
        assert q.count_for_core(3) == 0


class TestTransactionRecord:
    def test_unique_ids(self):
        a, b = make_txn(), make_txn()
        assert a.txn_id != b.txn_id

    def test_kind_flags(self):
        assert make_txn(kind=TransactionType.WRITE).is_write
        assert make_txn(kind=TransactionType.FAKE_READ).is_fake
        read = make_txn(kind=TransactionType.READ)
        assert not read.is_write and not read.is_fake

    def test_latency_none_until_delivered(self):
        t = make_txn(cycle=10)
        assert t.memory_latency is None
        t.delivered_cycle = 60
        assert t.memory_latency == 50

    def test_queueing_delay(self):
        t = make_txn()
        t.mc_arrival_cycle = 20
        assert t.queueing_delay is None
        t.issue_cycle = 35
        assert t.queueing_delay == 15

    def test_shaping_delay(self):
        t = make_txn(cycle=5)
        assert t.shaping_delay is None
        t.shaper_release_cycle = 12
        assert t.shaping_delay == 7
