"""Unit tests for the mutual-information estimators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import ExperimentDefaults, measure_mi_suite
from repro.common.errors import ConfigurationError
from repro.common.util import canonical_json_digest
from repro.core.bins import BinSpec
from repro.security.mutual_information import (
    entropy_bits,
    gap_rate_mi,
    interarrival_mi,
    mutual_information_bits,
    windowed_counts,
    windowed_rate_mi,
)


class TestEntropy:
    def test_constant_sequence_zero(self):
        assert entropy_bits([3] * 100) == 0.0

    def test_uniform_binary_one_bit(self):
        assert entropy_bits([0, 1] * 500) == pytest.approx(1.0)

    def test_uniform_four_symbols_two_bits(self):
        assert entropy_bits([0, 1, 2, 3] * 250) == pytest.approx(2.0)

    def test_empty_is_zero(self):
        assert entropy_bits([]) == 0.0


class TestMutualInformation:
    def test_identical_sequences_equal_entropy(self):
        x = [0, 1, 2, 3] * 100
        assert mutual_information_bits(x, x) == pytest.approx(entropy_bits(x))

    def test_independent_sequences_near_zero(self):
        rng = np.random.default_rng(1)
        x = rng.integers(0, 4, 20000)
        y = rng.integers(0, 4, 20000)
        assert mutual_information_bits(x, y) < 0.01

    def test_deterministic_function_preserves_mi(self):
        x = [0, 1, 2, 3] * 100
        y = [(v + 1) % 4 for v in x]  # bijection
        assert mutual_information_bits(x, y) == pytest.approx(entropy_bits(x))

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        x = rng.integers(0, 3, 500)
        y = (x + rng.integers(0, 2, 500)) % 3
        assert mutual_information_bits(x, y) == pytest.approx(
            mutual_information_bits(y, x)
        )

    def test_rejects_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            mutual_information_bits([1, 2], [1])

    def test_empty_is_zero(self):
        assert mutual_information_bits([], []) == 0.0

    def test_bias_correction_reduces_estimate(self):
        rng = np.random.default_rng(3)
        x = rng.integers(0, 8, 200)
        y = rng.integers(0, 8, 200)
        raw = mutual_information_bits(x, y)
        corrected = mutual_information_bits(x, y, bias_correction=True)
        assert corrected <= raw

    def test_never_negative(self):
        assert mutual_information_bits([0, 0, 1], [1, 1, 0],
                                       bias_correction=True) >= 0.0

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=5), min_size=2,
                    max_size=200))
    def test_data_processing_inequality(self, x):
        """Post-processing cannot increase MI — the paper's BDC
        argument (section IV-B3)."""
        y = [v % 3 for v in x]          # processed once
        z = [v % 2 for v in y]          # processed again
        assert (
            mutual_information_bits(x, z)
            <= mutual_information_bits(x, y) + 1e-9
        )

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=9), min_size=1,
                    max_size=200))
    def test_mi_bounded_by_self_information(self, x):
        y = list(reversed(x))
        h = entropy_bits(x)
        assert mutual_information_bits(x, y) <= h + 1e-9


class TestInterarrivalMi:
    def test_identity_equals_entropy_of_bins(self):
        gaps = [1, 5, 100, 600, 2, 2, 64]
        spec = BinSpec()
        mi = interarrival_mi(gaps, gaps, spec)
        bins = [spec.bin_of(g) for g in gaps]
        assert mi == pytest.approx(entropy_bits(bins))

    def test_truncates_to_common_length(self):
        assert interarrival_mi([1, 2, 3], [1, 2], BinSpec()) >= 0.0

    def test_empty_zero(self):
        assert interarrival_mi([], [1, 2]) == 0.0

    def test_constant_shaped_stream_zero(self):
        """A constant-rate shaped stream carries no information."""
        rng = np.random.default_rng(4)
        intrinsic = rng.integers(1, 500, 1000)
        shaped = [64] * 1000
        assert interarrival_mi(intrinsic, shaped) == 0.0


class TestWindowedCounts:
    def test_counts(self):
        counts = windowed_counts([0, 5, 10, 25], window_cycles=10,
                                 num_windows=3)
        assert list(counts) == [2, 1, 1]

    def test_out_of_range_ignored(self):
        counts = windowed_counts([100], window_cycles=10, num_windows=3)
        assert list(counts) == [0, 0, 0]

    def test_start_cycle_offset(self):
        counts = windowed_counts([100, 105], 10, 2, start_cycle=100)
        assert list(counts) == [2, 0]

    def test_rejects_bad_args(self):
        with pytest.raises(ConfigurationError):
            windowed_counts([], 0, 1)
        with pytest.raises(ConfigurationError):
            windowed_counts([], 10, 0)


class TestWindowedRateMi:
    def test_identical_streams_high_mi(self):
        rng = np.random.default_rng(5)
        times = sorted(rng.integers(0, 100000, 3000).tolist())
        mi = windowed_rate_mi(times, times, 1000, 100000)
        assert mi > 0.5

    def test_constant_observed_stream_zero(self):
        rng = np.random.default_rng(6)
        # Bursty intrinsic, perfectly regular observed.
        intrinsic = sorted(rng.integers(0, 50000, 500).tolist())
        observed = list(range(0, 100000, 50))
        mi = windowed_rate_mi(intrinsic, observed, 1000, 100000)
        assert mi == pytest.approx(0.0, abs=1e-9)

    def test_empty_streams(self):
        assert windowed_rate_mi([], [], 100, 1000) == 0.0


class TestGapRateMi:
    def test_is_bias_corrected_windowed_rate_mi_of_raw_times(self):
        rng = np.random.default_rng(7)
        x_gaps = rng.integers(1, 200, 400).tolist()
        y_gaps = rng.integers(1, 200, 400).tolist()
        expected = windowed_rate_mi(
            np.cumsum(x_gaps).tolist(), np.cumsum(y_gaps).tolist(),
            512, 60_000, bias_correction=True,
        )
        assert gap_rate_mi(x_gaps, y_gaps, 512, 60_000) == expected

    def test_mi_suite_digest_is_pinned(self):
        # The ``repro mi`` table: both columns, the no-shaping anchor
        # included, must not move when scoring code is reorganised.
        suite = measure_mi_suite(defaults=ExperimentDefaults().scaled(0.2))
        assert canonical_json_digest(suite) == "7c4c95f41a61267a"
