"""Tests for the Fletcher'14 epoch-rate policy (paper reference [14])."""

import math

import pytest

from repro.common.errors import ConfigurationError
from repro.common.rng import DeterministicRng
from repro.core.epoch_shaper import EpochRatePolicy, RateSet
from repro.core.request_shaper import RequestCamouflage
from repro.memctrl.transaction import MemoryTransaction, TransactionType
from repro.noc.link import SharedLink


class TestRateSet:
    def test_defaults(self):
        rs = RateSet()
        assert rs.num_rates == 6
        assert rs.bits_per_choice() == pytest.approx(math.log2(6))

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            RateSet(())

    def test_rejects_unsorted(self):
        with pytest.raises(ConfigurationError):
            RateSet((16, 8))

    def test_rejects_duplicates(self):
        with pytest.raises(ConfigurationError):
            RateSet((8, 8, 16))


class TestController:
    """The boundary half of the policy: which rate the next epoch gets."""

    def test_starts_at_slowest(self):
        c = EpochRatePolicy(RateSet((8, 16, 32)), epoch_cycles=100)
        assert c.current_interval == 32

    def test_explicit_initial_interval(self):
        c = EpochRatePolicy(RateSet((8, 16, 32)), epoch_cycles=100,
                            initial_interval=16)
        assert c.current_interval == 16

    def test_rejects_interval_outside_set(self):
        with pytest.raises(ConfigurationError):
            EpochRatePolicy(RateSet((8, 16)), epoch_cycles=100,
                            initial_interval=10)

    def test_no_boundary_no_change(self):
        c = EpochRatePolicy(RateSet((8, 16, 32)), epoch_cycles=100)
        assert not c.advance(99, 0)

    def test_feedback_pressure_steps_faster(self):
        c = EpochRatePolicy(RateSet((8, 16, 32)), epoch_cycles=100)
        c.advance(50, 2)  # more than one waiter: pressure
        assert c.advance(100, 0) == 1
        assert c.current_interval == 16
        assert c.rate_history == [(100, 16)]

    def test_feedback_idle_steps_slower(self):
        c = EpochRatePolicy(RateSet((8, 16, 32)), epoch_cycles=100,
                            initial_interval=8)
        c.release_fake(8)  # the epoch's only slot went to a fake
        c.advance(100, 0)
        assert c.current_interval == 16

    def test_feedback_clamps_at_extremes(self):
        c = EpochRatePolicy(RateSet((8, 16)), epoch_cycles=100,
                            initial_interval=8)
        c.advance(50, 2)
        c.advance(100, 0)
        assert c.current_interval == 8
        c2 = EpochRatePolicy(RateSet((8, 16)), epoch_cycles=100)
        c2.release_fake(16)
        c2.advance(100, 0)
        assert c2.current_interval == 16

    def test_epochs_elapsed(self):
        c = EpochRatePolicy(RateSet((8, 16)), epoch_cycles=100)
        assert c.advance(350, 0) == 3
        assert c.epochs_elapsed == 3


def make_shaper(epoch_cycles=256, rates=None):
    link = SharedLink(num_ports=1, latency=1, port_capacity=64)
    shaper = RequestCamouflage(
        core_id=0,
        shaper=EpochRatePolicy(
            rates or RateSet((4, 8, 16)), epoch_cycles=epoch_cycles
        ),
        link=link, port=0, rng=DeterministicRng(5),
    )
    return shaper, link


def make_txn(cycle=0):
    return MemoryTransaction(core_id=0, address=0x4000,
                             kind=TransactionType.READ, created_cycle=cycle)


class TestEpochRateShaper:
    def test_periodic_releases(self):
        """Inside one epoch the observable stream is strictly periodic."""
        shaper, link = make_shaper(epoch_cycles=256)
        for cycle in range(250):
            shaper.tick(cycle)
        releases = sorted(g for g, _, _ in link.grant_trace)
        # All events come from link.tick; shaper injected periodically.
        gaps = {b - a for a, b in zip(releases, releases[1:])}
        assert not gaps  # nothing granted: link never ticked
        # Check injection periodicity directly via the shaped histogram.
        gaps = set(shaper.shaped_histogram.gaps)
        assert gaps == {16}  # initial (slowest) interval

    def test_fake_fills_idle_slots(self):
        shaper, _ = make_shaper()
        for cycle in range(200):
            shaper.tick(cycle)
        assert shaper.fake_sent > 0
        assert shaper.real_sent == 0

    def test_real_preferred_over_fake(self):
        shaper, link = make_shaper()
        txn = make_txn()
        shaper.submit(txn, 0)
        for cycle in range(40):
            shaper.tick(cycle)
        assert shaper.real_sent == 1
        assert txn.shaper_release_cycle is not None

    def test_backpressure_via_capacity(self):
        shaper, _ = make_shaper()
        for _ in range(32):
            shaper.submit(make_txn(), 0)
        assert not shaper.can_accept()

    def test_pressure_escalates_rate(self):
        shaper, _ = make_shaper(epoch_cycles=256)
        cycle = 0
        for cycle in range(1500):
            if shaper.can_accept() and cycle % 4 == 0:
                shaper.submit(make_txn(cycle), cycle)
            shaper.tick(cycle)
        # Demand of 1/4 cycles needs the fastest rate; the AIMD path
        # must have walked the interval down from 16 to 4.
        assert shaper.shaper.current_interval == 4

    def test_leakage_bound_grows_with_epochs(self):
        shaper, _ = make_shaper(epoch_cycles=256)
        for cycle in range(1100):
            shaper.tick(cycle)
        expected_epochs = shaper.shaper.epochs_elapsed
        assert expected_epochs == 4
        assert shaper.shaper.leakage_bound_bits() == pytest.approx(
            expected_epochs * math.log2(3)
        )


class TestEpochShaperInSystem:
    def test_system_integration(self):
        from repro.sim import EpochShapingPlan, SystemBuilder
        from repro.sim.stats import report_digest
        from repro.workloads import make_trace

        builder = SystemBuilder(seed=3)
        builder.add_core(
            make_trace("apache", 1500),
            request_shaping=EpochShapingPlan(epoch_cycles=2048),
        )
        system = builder.build()
        report = system.run(20000, stop_when_done=False)
        path = system.request_paths[0]
        assert isinstance(path.shaper, EpochRatePolicy)
        assert (path.real_sent, path.fake_sent) == (79, 353)
        assert report.core(0).retired_instructions > 0
        # The run the former dedicated epoch-rate slot produced.
        assert report_digest(report) == "a5c9bd52c811827c"

    def test_epoch_shaping_keyword_is_gone(self):
        from repro.sim import EpochShapingPlan, SystemBuilder
        from repro.workloads import make_trace

        with pytest.raises(TypeError):
            SystemBuilder().add_core(
                make_trace("gcc", 10), epoch_shaping=EpochShapingPlan()
            )
