"""Unit tests for Request Camouflage (ReqC)."""

import pytest

from repro.common.rng import DeterministicRng
from repro.core.bins import BinConfiguration, BinSpec
from repro.common.errors import ConfigurationError
from repro.core.epoch_shaper import EpochRatePolicy
from repro.core.request_shaper import RequestCamouflage
from repro.core.shaper import BinShaper, Passthrough
from repro.memctrl.transaction import MemoryTransaction, TransactionType
from repro.noc.link import SharedLink


def make_reqc(config=None, spec=None, generate_fake=True, buffer_capacity=8):
    spec = spec or BinSpec(edges=(1, 2, 4, 8), replenish_period=32)
    config = config or BinConfiguration((2, 2, 2, 2))
    link = SharedLink(num_ports=1, latency=1, port_capacity=4)
    reqc = RequestCamouflage(
        core_id=0,
        shaper=BinShaper(spec, config),
        link=link,
        port=0,
        rng=DeterministicRng(7),
        address_space_bytes=1 << 20,
        buffer_capacity=buffer_capacity,
        generate_fake=generate_fake,
    )
    return reqc, link


def make_txn(cycle=0):
    return MemoryTransaction(
        core_id=0, address=0x1000, kind=TransactionType.READ,
        created_cycle=cycle,
    )


class TestBuffering:
    def test_accepts_until_capacity(self):
        reqc, _ = make_reqc(buffer_capacity=2)
        assert reqc.can_accept()
        reqc.submit(make_txn(), 0)
        reqc.submit(make_txn(), 0)
        assert not reqc.can_accept()

    def test_occupancy(self):
        reqc, _ = make_reqc()
        reqc.submit(make_txn(), 0)
        assert reqc.occupancy == 1

    @pytest.mark.parametrize("policy", [
        BinShaper(BinSpec(), BinConfiguration((1,) * 10)),
        EpochRatePolicy(),
        Passthrough(),
    ], ids=lambda policy: type(policy).__name__)
    @pytest.mark.parametrize("capacity", [0, -1])
    def test_rejects_nonpositive_capacity(self, policy, capacity):
        """A zero-depth buffer can never accept: the core would
        deadlock into the watchdog, whatever times the releases."""
        link = SharedLink(num_ports=1, latency=1)
        with pytest.raises(ConfigurationError, match="buffer_capacity"):
            RequestCamouflage(0, policy, link, 0, DeterministicRng(7),
                              buffer_capacity=capacity)


class TestRelease:
    def test_real_release_stamps_and_injects(self):
        reqc, link = make_reqc()
        txn = make_txn(0)
        reqc.submit(txn, 0)
        reqc.tick(1)
        assert txn.shaper_release_cycle == 1
        assert link.occupancy(0) == 1
        assert reqc.real_sent == 1

    def test_no_release_without_credit(self):
        config = BinConfiguration((0, 0, 0, 1))  # only the edge-8 bin
        reqc, link = make_reqc(config=config)
        txn = make_txn(0)
        reqc.submit(txn, 0)
        for cycle in range(1, 8):
            reqc.tick(cycle)
        assert reqc.real_sent == 0
        assert reqc.stall_cycles == 7
        reqc.tick(8)
        assert reqc.real_sent == 1

    def test_link_backpressure_blocks_release(self):
        reqc, link = make_reqc()
        # Fill the link port (capacity 4) without ticking the link;
        # gaps of 8 cycles keep credits eligible for every release.
        for cycle in (8, 16, 24, 31):
            reqc.submit(make_txn(), cycle)
            reqc.tick(cycle)
        assert reqc.real_sent == 4
        assert not link.can_inject(0)
        reqc.submit(make_txn(), 32)
        reqc.tick(40)
        assert reqc.real_sent == 4  # port full blocks even with credits

    def test_fifo_order(self):
        reqc, link = make_reqc()
        a, b = make_txn(), make_txn()
        reqc.submit(a, 0)
        reqc.submit(b, 0)
        reqc.tick(1)
        reqc.tick(2)
        assert link.ports[0].pop() is a
        assert link.ports[0].pop() is b


class TestFakeGeneration:
    def test_fake_fills_unused_credits(self):
        reqc, link = make_reqc()
        # Period 1 passes with no traffic: all credits latch as unused.
        for cycle in range(1, 40):
            reqc.tick(cycle)
        assert reqc.fake_sent > 0

    def test_fakes_marked_fake(self):
        reqc, link = make_reqc()
        for cycle in range(1, 40):
            reqc.tick(cycle)
        while link.ports[0].occupancy:
            assert link.ports[0].pop().is_fake

    def test_fake_addresses_line_aligned_and_bounded(self):
        reqc, link = make_reqc()
        for cycle in range(1, 64):
            reqc.tick(cycle)
            while link.ports[0].occupancy:
                txn = link.ports[0].pop()
                assert txn.address % 64 == 0
                assert 0 <= txn.address < (1 << 20)

    def test_no_fakes_when_disabled(self):
        reqc, _ = make_reqc(generate_fake=False)
        for cycle in range(1, 100):
            reqc.tick(cycle)
        assert reqc.fake_sent == 0

    def test_real_has_priority_over_fake(self):
        reqc, link = make_reqc()
        # Latch unused credits (quiet first period).
        for cycle in range(1, 33):
            reqc.tick(cycle)
        while link.ports[0].occupancy:  # drain any warm-up fakes
            link.ports[0].pop()
        txn = make_txn(33)
        reqc.submit(txn, 33)
        reqc.tick(34)
        # The release this cycle must be the real transaction.
        released = link.ports[0].pop()
        assert released is txn


class TestHistograms:
    def test_intrinsic_records_submissions(self):
        reqc, _ = make_reqc()
        reqc.submit(make_txn(), 0)
        reqc.submit(make_txn(), 5)
        assert reqc.intrinsic_histogram.total == 1
        assert reqc.intrinsic_histogram.gaps == (5,)

    def test_shaped_records_releases_including_fakes(self):
        reqc, _ = make_reqc()
        for cycle in range(1, 40):
            reqc.tick(cycle)
        assert reqc.shaped_histogram.total == max(0, reqc.fake_sent - 1)


class TestPassthrough:
    def test_forwards_immediately(self):
        link = SharedLink(num_ports=1, latency=1)
        p = RequestCamouflage(0, Passthrough(), link, 0)
        txn = make_txn()
        p.submit(txn, 0)
        p.tick(3)
        assert txn.shaper_release_cycle == 3
        assert link.occupancy(0) == 1

    def test_shaped_histogram_is_intrinsic(self):
        link = SharedLink(num_ports=1, latency=1)
        p = RequestCamouflage(0, Passthrough(), link, 0)
        assert p.shaped_histogram is p.intrinsic_histogram
        p.submit(make_txn(), 0)
        p.submit(make_txn(), 5)
        p.tick(5)
        p.tick(6)
        assert p.real_sent == 2
        # One shared histogram, so a release must not record again.
        assert p.shaped_histogram.gaps == (5,)

    def test_backpressure(self):
        link = SharedLink(num_ports=1, latency=1, port_capacity=1)
        p = RequestCamouflage(0, Passthrough(), link, 0, buffer_capacity=1)
        p.submit(make_txn(), 0)
        p.tick(0)
        p.submit(make_txn(), 1)
        assert not p.can_accept()
        p.tick(1)  # port full: stays buffered
        assert p.occupancy == 1
