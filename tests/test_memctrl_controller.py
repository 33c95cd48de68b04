"""Unit tests for the memory controller command engine."""

import pytest

from repro.common.errors import ProtocolError
from repro.dram.system import DramSystem
from repro.memctrl.controller import MemoryController
from repro.memctrl.schedulers import FrFcfsScheduler
from repro.memctrl.transaction import MemoryTransaction, TransactionType


def make_controller(enable_refresh=False, **kwargs):
    dram = DramSystem(enable_refresh=enable_refresh)
    return MemoryController(dram, **kwargs)


def make_txn(core=0, address=0, write=False):
    return MemoryTransaction(
        core_id=core,
        address=address,
        kind=TransactionType.WRITE if write else TransactionType.READ,
        created_cycle=0,
    )


def run_controller(controller, cycles, start=0):
    for cycle in range(start, start + cycles):
        controller.tick(cycle)
    return start + cycles


class TestIngress:
    def test_enqueue_decodes_and_stamps(self):
        mc = make_controller()
        txn = make_txn(address=4096)
        mc.enqueue(txn, cycle=7)
        assert txn.decoded is not None
        assert txn.mc_arrival_cycle == 7

    def test_backpressure_when_full(self):
        mc = make_controller(queue_capacity=2)
        mc.enqueue(make_txn(address=0), 0)
        mc.enqueue(make_txn(address=64), 0)
        assert not mc.can_accept()
        with pytest.raises(ProtocolError):
            mc.enqueue(make_txn(address=128), 0)

    def test_per_core_mapping_used(self, organization):
        from repro.dram.address import AddressMapping

        partitioned = AddressMapping.partitioned(organization, [3])
        mc = make_controller(per_core_mapping={1: partitioned})
        own = make_txn(core=1, address=0)
        other = make_txn(core=0, address=0)
        mc.enqueue(own, 0)
        mc.enqueue(other, 0)
        assert own.decoded.bank == 3
        assert other.decoded.bank == 0


class TestServiceLoop:
    def test_single_read_completes(self):
        mc = make_controller()
        txn = make_txn(address=4096)
        mc.enqueue(txn, 0)
        run_controller(mc, 60)
        assert txn.issue_cycle is not None
        assert txn.data_ready_cycle == txn.issue_cycle + (
            mc.dram.timing.tCAS + mc.dram.timing.tBURST
        )
        assert mc.pop_responses(0) == [txn]
        assert mc.issued_reads == 1

    def test_write_completes(self):
        mc = make_controller()
        txn = make_txn(address=4096, write=True)
        mc.enqueue(txn, 0)
        run_controller(mc, 60)
        assert mc.pop_responses(0) == [txn]
        assert mc.issued_writes == 1

    def test_same_row_stream_hits_after_first(self):
        """The row stays open: of six reads to one row, only the first
        misses."""
        mc = make_controller()
        for i in range(6):
            mc.enqueue(make_txn(address=i * 64), 0)
        run_controller(mc, 400)
        assert mc.row_hits == 5
        assert mc.row_misses == 1

    def test_row_hit_faster_than_conflict(self):
        """Service the same bank twice: hit vs conflict latency gap."""
        mc = make_controller()
        first = make_txn(address=0)
        hit = make_txn(address=64)          # same row
        mc.enqueue(first, 0)
        mc.enqueue(hit, 0)
        run_controller(mc, 80)
        assert hit.was_row_hit
        assert first.was_row_hit is False

        mc2 = make_controller()
        first2 = make_txn(address=0)
        conflict = make_txn(address=8192 * 8)  # same bank, other row
        mc2.enqueue(first2, 0)
        mc2.enqueue(conflict, 0)
        run_controller(mc2, 120)
        assert conflict.was_row_hit is False
        hit_latency = hit.data_ready_cycle - first.data_ready_cycle
        conflict_latency = conflict.data_ready_cycle - first2.data_ready_cycle
        assert conflict_latency > hit_latency

    def test_responses_grouped_per_core(self):
        mc = make_controller()
        a = make_txn(core=0, address=0)
        b = make_txn(core=1, address=1 << 22)
        mc.enqueue(a, 0)
        mc.enqueue(b, 0)
        run_controller(mc, 100)
        assert mc.pop_responses(0) == [a]
        assert mc.pop_responses(1) == [b]
        assert mc.pop_responses(0) == []

    def test_pending_response_count(self):
        mc = make_controller()
        txn = make_txn(address=0)
        mc.enqueue(txn, 0)
        run_controller(mc, 60)
        assert mc.pending_response_count(0) == 1
        mc.pop_responses(0)
        assert mc.pending_response_count(0) == 0

    def test_many_transactions_all_complete(self):
        mc = make_controller()
        txns = [make_txn(core=i % 2, address=i * 8192) for i in range(16)]
        cycle = 0
        for txn in txns:
            while not mc.can_accept():
                mc.tick(cycle)
                cycle += 1
            mc.enqueue(txn, cycle)
        run_controller(mc, 2000, start=cycle)
        done = mc.pop_responses(0) + mc.pop_responses(1)
        assert len(done) == 16
        assert all(t.data_ready_cycle is not None for t in txns)

    def test_pick_that_cannot_issue_is_a_protocol_error(self):
        """The cross-check on the live registers catches a scheduler
        that picks a transaction whose command is not yet legal."""
        class Eager(FrFcfsScheduler):
            def select(self, queue, dram, cycle):
                for txn in queue:
                    return txn
                return None

        mc = make_controller(scheduler=Eager())
        mc.enqueue(make_txn(address=0), 0)
        mc.tick(0)  # ACTIVATE; the READ waits for tRCD
        with pytest.raises(
            ProtocolError, match="command RD ch0 rk0 bk0 row0 col0 cannot issue"
        ):
            mc.tick(1)

    def test_fake_reads_serviced_like_reads(self):
        """Fake traffic exercises real DRAM banks (it must be real on
        the wire to be indistinguishable)."""
        mc = make_controller()
        fake = MemoryTransaction(
            core_id=0, address=64, kind=TransactionType.FAKE_READ,
            created_cycle=0,
        )
        mc.enqueue(fake, 0)
        run_controller(mc, 60)
        assert mc.pop_responses(0) == [fake]


class TestRefreshService:
    def test_refresh_issued_at_deadline(self):
        mc = make_controller(enable_refresh=True)
        trefi = mc.dram.timing.tREFI
        run_controller(mc, trefi + 10)
        assert mc.refreshes == 1

    def test_refresh_precharges_open_banks_first(self):
        mc = make_controller(enable_refresh=True)
        txn = make_txn(address=0)
        mc.enqueue(txn, 0)
        trefi = mc.dram.timing.tREFI
        run_controller(mc, trefi + mc.dram.timing.tRFC)
        assert mc.refreshes == 1
        # The bank used by the transaction was precharged for refresh.
        assert mc.dram.target(txn.decoded).bank.open_row is None

    def test_transactions_resume_after_refresh(self):
        mc = make_controller(enable_refresh=True)
        trefi = mc.dram.timing.tREFI
        cycle = run_controller(mc, trefi + 5)
        txn = make_txn(address=0)
        mc.enqueue(txn, cycle)
        run_controller(mc, mc.dram.timing.tRFC + 100, start=cycle)
        assert txn.data_ready_cycle is not None
