"""Unit tests for bin geometry and credit configurations."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.core.bins import (
    BinConfiguration,
    BinSpec,
    MAX_CREDITS_PER_BIN,
    constant_rate_config,
    uniform_config,
)


def linear_bin_of(edges, delta):
    """Reference ``bin_of``: the last edge ``<= delta``, else bin 0."""
    index = 0
    for k, edge in enumerate(edges):
        if delta >= edge:
            index = k
        else:
            break
    return index


class TestBinSpec:
    def test_default_ten_bins(self):
        spec = BinSpec()
        assert spec.num_bins == 10
        assert spec.edges == (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)

    def test_bin_of_exact_edges(self):
        spec = BinSpec()
        for k, edge in enumerate(spec.edges):
            assert spec.bin_of(edge) == k

    def test_bin_of_interior_points(self):
        spec = BinSpec()
        assert spec.bin_of(3) == 1
        assert spec.bin_of(100) == 6
        assert spec.bin_of(511) == 8

    def test_bin_of_above_top_edge(self):
        spec = BinSpec()
        assert spec.bin_of(10_000) == 9

    def test_bin_of_below_smallest(self):
        assert BinSpec().bin_of(0) == 0

    def test_bin_of_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            BinSpec().bin_of(-1)

    def test_rejects_non_increasing_edges(self):
        with pytest.raises(ConfigurationError):
            BinSpec(edges=(1, 2, 2, 8))

    def test_rejects_zero_first_edge(self):
        with pytest.raises(ConfigurationError):
            BinSpec(edges=(0, 2))

    def test_rejects_period_below_top_edge(self):
        with pytest.raises(ConfigurationError):
            BinSpec(edges=(1, 2, 512), replenish_period=256)

    @given(
        edges=st.lists(
            st.integers(min_value=1, max_value=2_000), min_size=1,
            max_size=12, unique=True,
        ).map(lambda e: tuple(sorted(e))),
        deltas=st.lists(st.integers(min_value=0, max_value=3_000), max_size=20),
    )
    def test_bin_of_equals_a_linear_scan(self, edges, deltas):
        """Bisection against the scan it replaced."""
        spec = BinSpec(edges=edges, replenish_period=edges[-1])
        for delta in deltas + list(edges) + [edge - 1 for edge in edges]:
            assert spec.bin_of(delta) == linear_bin_of(edges, delta)

    @given(st.integers(min_value=0, max_value=10**6))
    def test_bin_of_consistent_with_edges(self, delta):
        spec = BinSpec()
        k = spec.bin_of(delta)
        assert delta >= spec.edges[k] or k == 0
        if k + 1 < spec.num_bins:
            assert delta < spec.edges[k + 1]


class TestBinConfiguration:
    def test_total_and_normalized(self):
        cfg = BinConfiguration((1, 3, 0, 4))
        assert cfg.total_credits == 8
        assert cfg.normalized() == (0.125, 0.375, 0.0, 0.5)

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            BinConfiguration(())

    def test_rejects_all_zero(self):
        with pytest.raises(ConfigurationError):
            BinConfiguration((0, 0, 0))

    def test_rejects_overflow_of_ten_bit_register(self):
        with pytest.raises(ConfigurationError):
            BinConfiguration((MAX_CREDITS_PER_BIN + 1,))

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            BinConfiguration((-1, 5))

    def test_with_bin(self):
        cfg = BinConfiguration((1, 2, 3))
        updated = cfg.with_bin(1, 9)
        assert updated.credits == (1, 9, 3)
        assert cfg.credits == (1, 2, 3)  # original unchanged

    def test_with_bin_rejects_bad_index(self):
        with pytest.raises(ConfigurationError):
            BinConfiguration((1, 2)).with_bin(5, 1)


class TestConstantRateConfig:
    def test_single_credited_bin(self):
        spec = BinSpec()
        cfg = constant_rate_config(spec, 128)
        assert cfg.credits[spec.bin_of(128)] == spec.replenish_period // 128
        assert sum(1 for c in cfg.credits if c > 0) == 1

    def test_budget_matches_period(self):
        spec = BinSpec()
        cfg = constant_rate_config(spec, 64)
        assert cfg.total_credits == spec.replenish_period // 64

    def test_rejects_non_edge_interval(self):
        with pytest.raises(ConfigurationError):
            constant_rate_config(BinSpec(), 100)

    def test_rejects_interval_below_smallest_edge(self):
        spec = BinSpec(edges=(4, 8), replenish_period=64)
        with pytest.raises(ConfigurationError):
            constant_rate_config(spec, 2)


class TestUniformConfig:
    def test_equal_credits(self):
        cfg = uniform_config(BinSpec(), 5)
        assert cfg.credits == (5,) * 10

    def test_rejects_zero(self):
        with pytest.raises(ConfigurationError):
            uniform_config(BinSpec(), 0)


class TestBandwidthBound:
    def test_constant_rate_bound_is_one(self):
        """A full constant-rate config exactly saturates its budget."""
        spec = BinSpec()
        cfg = constant_rate_config(spec, 128)
        assert spec.max_bandwidth_fraction(cfg) == pytest.approx(1.0)

    def test_small_bins_need_less_time(self):
        spec = BinSpec()
        fast = BinConfiguration((16,) + (0,) * 9)
        slow = BinConfiguration((0,) * 9 + (4,))
        assert spec.max_bandwidth_fraction(fast) < spec.max_bandwidth_fraction(
            slow
        )
