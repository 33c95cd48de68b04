"""Unit tests for Response Camouflage (RespC)."""

import pytest

from repro.core.bins import BinConfiguration, BinSpec
from repro.common.errors import ConfigurationError
from repro.core.response_shaper import ResponseCamouflage
from repro.core.shaper import BinShaper, Passthrough
from repro.memctrl.schedulers import PriorityFrFcfsScheduler
from repro.memctrl.transaction import MemoryTransaction, TransactionType
from repro.noc.link import SharedLink


def make_respc(
    config=None,
    scheduler=None,
    outstanding=0,
    generate_fake=True,
):
    spec = BinSpec(edges=(1, 2, 4, 8), replenish_period=32)
    config = config or BinConfiguration((2, 2, 2, 2))
    link = SharedLink(num_ports=1, latency=1, port_capacity=4)
    respc = ResponseCamouflage(
        core_id=0,
        shaper=BinShaper(spec, config),
        link=link,
        port=0,
        scheduler=scheduler,
        outstanding_fn=lambda: outstanding,
        generate_fake=generate_fake,
    )
    return respc, link


def make_response(cycle=0):
    txn = MemoryTransaction(
        core_id=0, address=0x40, kind=TransactionType.READ, created_cycle=cycle
    )
    txn.data_ready_cycle = cycle
    return txn


class TestThrottling:
    def test_release_when_credited(self):
        respc, link = make_respc()
        txn = make_response(0)
        respc.push_response(txn, 0)
        respc.tick(1)
        assert txn.response_release_cycle == 1
        assert respc.real_sent == 1

    def test_buffered_until_credit(self):
        config = BinConfiguration((0, 0, 0, 1))
        respc, link = make_respc(config=config)
        respc.push_response(make_response(0), 0)
        for cycle in range(1, 8):
            respc.tick(cycle)
        assert respc.real_sent == 0
        assert respc.occupancy == 1
        respc.tick(8)
        assert respc.real_sent == 1

    def test_queue_capacity(self):
        respc, _ = make_respc()
        for _ in range(64):
            respc.push_response(make_response(0), 0)
        assert not respc.can_accept()

    @pytest.mark.parametrize("policy", [
        BinShaper(BinSpec(), BinConfiguration((1,) * 10)),
        Passthrough(),
    ], ids=lambda policy: type(policy).__name__)
    @pytest.mark.parametrize("capacity", [0, -1])
    def test_rejects_nonpositive_capacity(self, policy, capacity):
        link = SharedLink(num_ports=1, latency=1)
        with pytest.raises(ConfigurationError, match="buffer_capacity"):
            ResponseCamouflage(0, policy, link, 0, buffer_capacity=capacity)


class TestFakeResponses:
    def test_fake_when_idle_with_unused_credits(self):
        respc, link = make_respc()
        for cycle in range(1, 40):
            respc.tick(cycle)
        assert respc.fake_sent > 0

    def test_no_fake_while_responses_pending(self):
        """Figure 6 case 3: fakes only when the response queue is empty."""
        config = BinConfiguration((0, 0, 0, 1))  # slow: queue backs up
        respc, link = make_respc(config=config)
        for cycle in range(1, 33):
            respc.tick(cycle)  # first period all unused → latch
        respc.push_response(make_response(33), 33)
        fake_before = respc.fake_sent
        respc.tick(34)  # delta small: real cannot go, queue non-empty
        assert respc.fake_sent == fake_before

    def test_no_fake_when_disabled(self):
        respc, _ = make_respc(generate_fake=False)
        for cycle in range(1, 100):
            respc.tick(cycle)
        assert respc.fake_sent == 0


class TestWarnings:
    def test_warning_sent_when_starved_with_outstanding(self):
        sched = PriorityFrFcfsScheduler(num_cores=1)
        respc, _ = make_respc(scheduler=sched, outstanding=3)
        for cycle in range(1, 40):
            respc.tick(cycle)
        assert respc.warnings_sent >= 1
        assert sched.boost_of(0) > 0
        # Boost granted proportional to unused credits (full config = 8).
        assert respc.boost_credits_granted >= 8

    def test_no_warning_when_idle(self):
        """Unused credits with nothing outstanding = idle program →
        fake responses, not priority boosts."""
        sched = PriorityFrFcfsScheduler(num_cores=1)
        respc, _ = make_respc(scheduler=sched, outstanding=0)
        for cycle in range(1, 40):
            respc.tick(cycle)
        assert respc.warnings_sent == 0
        assert sched.boost_of(0) == 0

    def test_no_warning_without_scheduler(self):
        respc, _ = make_respc(scheduler=None, outstanding=5)
        for cycle in range(1, 40):
            respc.tick(cycle)
        assert respc.warnings_sent == 0

    def test_no_warning_when_credits_consumed(self):
        sched = PriorityFrFcfsScheduler(num_cores=1)
        respc, _ = make_respc(scheduler=sched, outstanding=5)
        # Keep the shaper fully fed so every credit is consumed.
        cycle = 0
        for cycle in range(1, 33):
            if respc.occupancy < 4:
                respc.push_response(make_response(cycle), cycle)
            respc.tick(cycle)
            while respc.link.ports[0].occupancy:
                respc.link.ports[0].pop()
        # All 8 credits consumed → unused 0 → no warning.
        assert respc.shaper.unused_total_at_last_replenish() == 0
        assert respc.warnings_sent == 0


class TestHistograms:
    def test_intrinsic_records_arrivals(self):
        respc, _ = make_respc()
        respc.push_response(make_response(0), 0)
        respc.push_response(make_response(6), 6)
        assert respc.intrinsic_histogram.gaps == (6,)

    def test_shaped_records_releases(self):
        respc, _ = make_respc()
        respc.push_response(make_response(0), 0)
        respc.push_response(make_response(1), 1)
        respc.tick(1)
        respc.tick(3)
        assert respc.shaped_histogram.gaps == (2,)


class TestPassthroughResponsePath:
    def test_forwards(self):
        link = SharedLink(num_ports=1, latency=1)
        path = ResponseCamouflage(0, Passthrough(), link, 0)
        txn = make_response(0)
        path.push_response(txn, 0)
        path.tick(2)
        assert txn.response_release_cycle == 2
        assert path.real_sent == 1

    def test_set_outstanding_fn(self):
        respc, _ = make_respc()
        respc.set_outstanding_fn(lambda: 42)
        assert respc._outstanding_fn() == 42
