"""Unit tests for the bin-based credit shaper — the paper's core
hardware mechanism."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError, ProtocolError
from repro.core.bins import BinConfiguration, BinSpec
from repro.core.shaper import BinShaper

from tests.test_bins import linear_bin_of


@pytest.fixture
def shaper(small_spec, uniform_small_config):
    return BinShaper(small_spec, uniform_small_config)


class TestConstruction:
    def test_initial_credits_match_config(self, shaper, uniform_small_config):
        assert shaper.credits_remaining() == uniform_small_config.credits

    def test_initial_unused_zero(self, shaper):
        assert shaper.unused_remaining() == (0, 0, 0, 0)

    def test_rejects_bin_count_mismatch(self, small_spec):
        with pytest.raises(ConfigurationError):
            BinShaper(small_spec, BinConfiguration((1, 1)))


class TestEligibility:
    def test_zero_delta_never_eligible(self, shaper):
        """Back-to-back (same-cycle) releases are impossible: port width 1."""
        assert not shaper.can_release_real(0)

    def test_smallest_edge_eligible_after_one_cycle(self, shaper):
        assert shaper.can_release_real(1)

    def test_consumes_largest_eligible_bin(self, shaper):
        # Delta 5 covers edges 1, 2, 4 → bin 2 (edge 4) is consumed.
        consumed = shaper.release_real(5)
        assert consumed == 2
        assert shaper.credits_remaining() == (2, 2, 1, 2)

    def test_exhausted_bins_fall_back_to_smaller(self, small_spec):
        config = BinConfiguration((1, 0, 0, 1))
        shaper = BinShaper(small_spec, config)
        assert shaper.release_real(4) == 0   # only bin 0 has credits ≤ 4
        assert shaper.release_real(12) == 3  # delta 8 ≥ edge 8

    def test_no_credits_blocks(self, small_spec):
        shaper = BinShaper(small_spec, BinConfiguration((1, 0, 0, 0)))
        shaper.release_real(1)
        assert not shaper.can_release_real(10)
        with pytest.raises(ProtocolError):
            shaper.release_real(10)

    def test_release_updates_reference(self, shaper):
        shaper.release_real(4)
        # Delta is now measured from cycle 4.
        assert not shaper.can_release_real(4)
        assert shaper.can_release_real(5)

    def test_clock_backwards_raises(self, shaper):
        shaper.release_real(8)
        with pytest.raises(ProtocolError):
            shaper.can_release_real(3)


class TestEarliestRelease:
    def test_immediate_when_eligible(self, shaper):
        assert shaper.earliest_real_release(5) == 5

    def test_future_edge_when_delta_too_small(self, small_spec):
        shaper = BinShaper(small_spec, BinConfiguration((0, 0, 0, 2)))
        # Only the edge-8 bin is credited; earliest is cycle 8.
        assert shaper.earliest_real_release(1) == 8

    def test_none_when_no_credits(self, small_spec):
        shaper = BinShaper(small_spec, BinConfiguration((1, 0, 0, 0)))
        shaper.release_real(1)
        assert shaper.earliest_real_release(2) is None


class TestReplenishment:
    def test_no_boundary_before_period(self, shaper):
        assert shaper.replenish_if_due(31) == 0

    def test_boundary_at_period(self, shaper, small_spec):
        assert shaper.replenish_if_due(small_spec.replenish_period) == 1
        assert shaper.replenishments == 1

    def test_credits_reset_not_accumulated(self, shaper, small_spec):
        shaper.release_real(1)
        shaper.replenish_if_due(small_spec.replenish_period)
        assert shaper.credits_remaining() == (2, 2, 2, 2)

    def test_unused_credits_latched(self, shaper, small_spec):
        shaper.release_real(4)  # consume bin 2
        shaper.replenish_if_due(small_spec.replenish_period)
        assert shaper.unused_remaining() == (2, 2, 1, 2)
        assert shaper.unused_total_at_last_replenish() == 7

    def test_stale_unused_discarded_next_period(self, shaper, small_spec):
        shaper.replenish_if_due(small_spec.replenish_period)
        assert shaper.unused_total_at_last_replenish() == 8
        shaper.replenish_if_due(2 * small_spec.replenish_period)
        # Nothing consumed again: unused latches the full config, not 16.
        assert shaper.unused_total_at_last_replenish() == 8

    def test_multiple_missed_boundaries(self, shaper, small_spec):
        assert shaper.replenish_if_due(5 * small_spec.replenish_period) == 5

    def test_reconfigure_applies_at_boundary(self, shaper, small_spec):
        new = BinConfiguration((9, 0, 0, 0))
        shaper.reconfigure(new)
        assert shaper.config.credits == (2, 2, 2, 2)  # not yet
        shaper.replenish_if_due(small_spec.replenish_period)
        assert shaper.config.credits == (9, 0, 0, 0)
        assert shaper.credits_remaining() == (9, 0, 0, 0)

    def test_reconfigure_rejects_wrong_bins(self, shaper):
        with pytest.raises(ConfigurationError):
            shaper.reconfigure(BinConfiguration((1,)))


class TestFakeCredits:
    def test_fake_ineligible_without_unused(self, shaper):
        assert not shaper.can_release_fake(10)

    def test_fake_eligible_after_latch(self, shaper, small_spec):
        shaper.replenish_if_due(small_spec.replenish_period)
        assert shaper.can_release_fake(small_spec.replenish_period + 1)

    def test_fake_consumes_unused_not_live(self, shaper, small_spec):
        period = small_spec.replenish_period
        shaper.replenish_if_due(period)
        shaper.release_fake(period + 1)
        assert shaper.credits_remaining() == (2, 2, 2, 2)
        assert sum(shaper.unused_remaining()) == 7

    def test_fake_without_eligibility_raises(self, shaper):
        with pytest.raises(ProtocolError):
            shaper.release_fake(10)

    def test_real_and_fake_counted_separately(self, shaper, small_spec):
        period = small_spec.replenish_period
        shaper.release_real(2)
        shaper.replenish_if_due(period)
        shaper.release_fake(period + 1)
        assert shaper.real_releases == 1
        assert shaper.fake_releases == 1


class TestStateSnapshot:
    def test_snapshot_fields(self, shaper, small_spec):
        state = shaper.state()
        assert state.credits == (2, 2, 2, 2)
        assert state.next_replenish_cycle == small_spec.replenish_period


class TestConservationProperty:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=3), min_size=4, max_size=4)
        .filter(lambda c: sum(c) > 0),
        st.integers(min_value=0, max_value=7),
    )
    def test_per_period_releases_bounded_by_credits(self, credits, seed):
        """No period ever releases more real transactions than its
        configured credit total — the bandwidth-cap invariant."""
        spec = BinSpec(edges=(1, 2, 4, 8), replenish_period=32)
        config = BinConfiguration(tuple(credits))
        shaper = BinShaper(spec, config)
        releases_this_period = 0
        period_index = 0
        for cycle in range(1, 200):
            boundaries = shaper.replenish_if_due(cycle)
            if boundaries:
                assert releases_this_period <= config.total_credits
                releases_this_period = 0
                period_index += boundaries
            # A greedy producer: release whenever allowed, with a
            # seed-dependent skip pattern.
            if (cycle + seed) % 3 != 0 and shaper.can_release_real(cycle):
                shaper.release_real(cycle)
                releases_this_period += 1

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=6))
    def test_greedy_rate_matches_constant_config(self, interval_log):
        """A single-bin config yields exactly period/edge releases."""
        interval = 2 ** interval_log  # 2..64
        spec = BinSpec(edges=(1, 2, 4, 8, 16, 32, 64), replenish_period=128)
        credits = [0] * 7
        credits[spec.bin_of(interval)] = 128 // interval
        shaper = BinShaper(spec, BinConfiguration(tuple(credits)))
        releases = 0
        for cycle in range(1, 129):
            if shaper.can_release_real(cycle):
                shaper.release_real(cycle)
                releases += 1
        assert releases == 128 // interval


# -- cached aggregates and bin lookup against references -------------------

EDGES = st.lists(
    st.integers(min_value=1, max_value=64), min_size=1, max_size=10,
    unique=True,
).map(lambda e: tuple(sorted(e)))


def aggregates(shaper):
    return (
        shaper._credits_total, shaper._unused_total,
        shaper._credits_smallest_edge, shaper._unused_smallest_edge,
    )


def eligible_reference(edges, registers, delta, strict):
    """The linear-scan rule: strict takes only the bin ``delta`` falls
    in (the top bin falls back); the default rule the largest credited
    bin with edge <= delta."""
    if strict:
        k = linear_bin_of(edges, delta)
        if edges[k] <= delta and registers[k] > 0:
            return k
        if k < len(edges) - 1:
            return None
    chosen = None
    for k, edge in enumerate(edges):
        if edge > delta:
            break
        if registers[k] > 0:
            chosen = k
    return chosen


class TestAggregatesAndLookup:
    @settings(max_examples=80, deadline=None)
    @given(
        data=st.data(),
        edges=EDGES,
        strict=st.booleans(),
        gaps=st.lists(st.integers(min_value=0, max_value=80), max_size=60),
    )
    def test_in_place_aggregates_equal_a_recache(
        self, data, edges, strict, gaps
    ):
        """After every release, the totals and smallest credited edges
        updated in place are what a full recache computes."""
        spec = BinSpec(
            edges=edges,
            replenish_period=data.draw(
                st.integers(min_value=edges[-1], max_value=4 * edges[-1])
            ),
        )
        credit_lists = st.lists(
            st.integers(min_value=0, max_value=3),
            min_size=len(edges), max_size=len(edges),
        ).filter(lambda c: sum(c) > 0)
        shaper = BinShaper(
            spec, BinConfiguration(tuple(data.draw(credit_lists))),
            strict=strict,
        )
        cycle = 0
        releases = 0
        for gap in gaps:
            cycle += gap
            if data.draw(st.booleans()):
                shaper.reconfigure(
                    BinConfiguration(tuple(data.draw(credit_lists)))
                )
            shaper.replenish_if_due(cycle)
            if shaper.can_release_real(cycle):
                shaper.release_real(cycle)
            elif shaper.can_release_fake(cycle):
                shaper.release_fake(cycle)
            else:
                continue
            releases += 1
            cached = aggregates(shaper)
            shaper._recache_aggregates()
            assert cached == aggregates(shaper)
        assert releases == shaper.real_releases + shaper.fake_releases

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        edges=EDGES,
        strict=st.booleans(),
        deltas=st.lists(st.integers(min_value=0, max_value=100), max_size=20),
    )
    def test_eligible_bin_equals_a_linear_scan(
        self, data, edges, strict, deltas
    ):
        registers = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=2),
                min_size=len(edges), max_size=len(edges),
            )
        )
        spec = BinSpec(edges=edges, replenish_period=edges[-1])
        shaper = BinShaper(
            spec, BinConfiguration(tuple([1] * len(edges))), strict=strict
        )
        for delta in deltas + list(edges):
            assert shaper._eligible_bin(registers, delta) == (
                eligible_reference(edges, registers, delta, strict)
            )
