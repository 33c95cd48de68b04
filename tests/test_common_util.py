"""Unit tests for repro.common.util."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.util import (
    canonical_doc,
    canonical_json_digest,
    ceil_div,
    clamp,
    cumulative_sum,
    fold_sum,
    geometric_mean,
    is_power_of_two,
    log2_int,
    saturating_add,
)


class TestCeilDiv:
    def test_exact_division(self):
        assert ceil_div(12, 4) == 3

    def test_rounds_up(self):
        assert ceil_div(13, 4) == 4

    def test_zero_numerator(self):
        assert ceil_div(0, 5) == 0

    def test_one(self):
        assert ceil_div(1, 5) == 1

    def test_rejects_zero_denominator(self):
        with pytest.raises(ValueError):
            ceil_div(1, 0)

    def test_rejects_negative_denominator(self):
        with pytest.raises(ValueError):
            ceil_div(1, -2)

    @given(st.integers(min_value=0, max_value=10**9),
           st.integers(min_value=1, max_value=10**6))
    def test_matches_math_ceil(self, n, d):
        assert ceil_div(n, d) == math.ceil(n / d)


class TestClamp:
    def test_below(self):
        assert clamp(-5, 0, 10) == 0

    def test_above(self):
        assert clamp(15, 0, 10) == 10

    def test_inside(self):
        assert clamp(5, 0, 10) == 5

    def test_at_edges(self):
        assert clamp(0, 0, 10) == 0
        assert clamp(10, 0, 10) == 10

    def test_rejects_inverted_range(self):
        with pytest.raises(ValueError):
            clamp(5, 10, 0)

    @given(st.integers(), st.integers(), st.integers())
    def test_result_always_in_range(self, v, a, b):
        low, high = min(a, b), max(a, b)
        assert low <= clamp(v, low, high) <= high


class TestPowerOfTwo:
    @pytest.mark.parametrize("value", [1, 2, 4, 64, 4096, 1 << 40])
    def test_powers(self, value):
        assert is_power_of_two(value)

    @pytest.mark.parametrize("value", [0, -1, -2, 3, 6, 100, (1 << 40) + 1])
    def test_non_powers(self, value):
        assert not is_power_of_two(value)

    @pytest.mark.parametrize("value,expected", [(1, 0), (2, 1), (64, 6), (4096, 12)])
    def test_log2_int(self, value, expected):
        assert log2_int(value) == expected

    def test_log2_rejects_non_power(self):
        with pytest.raises(ValueError):
            log2_int(3)


class TestSaturatingAdd:
    def test_no_saturation(self):
        assert saturating_add(5, 3, 10) == 8

    def test_saturates(self):
        assert saturating_add(5, 10, 10) == 10

    def test_exact_limit(self):
        assert saturating_add(5, 5, 10) == 10

    def test_rejects_negative_max(self):
        with pytest.raises(ValueError):
            saturating_add(0, 1, -1)

    @given(st.integers(min_value=0, max_value=1023),
           st.integers(min_value=0, max_value=1023))
    def test_never_exceeds_ten_bit_register(self, value, delta):
        assert saturating_add(value, delta, 1023) <= 1023


class TestFoldSum:
    """One rounding per addition, left to right, on every Python:
    ``sum()`` compensates from 3.12 and would give exactly 1.0 here."""

    def test_keeps_uncompensated_bits(self):
        assert fold_sum([0.1] * 10).hex() == (0.9999999999999999).hex()

    def test_empty_is_float_zero(self):
        assert fold_sum([]) == 0.0 and isinstance(fold_sum([]), float)

    def test_geometric_mean_folds_its_logs(self):
        values = [0.1 * k for k in range(1, 11)]
        total = 0.0
        for value in values:
            total += math.log(value)
        assert geometric_mean(values).hex() == math.exp(total / 10).hex()


class TestGeometricMean:
    def test_identity(self):
        assert geometric_mean([2.0]) == pytest.approx(2.0)

    def test_known_value(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_invariant_to_order(self):
        assert geometric_mean([1.5, 2.5, 0.5]) == pytest.approx(
            geometric_mean([0.5, 1.5, 2.5])
        )

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            geometric_mean([])

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])

    @given(st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=1,
                    max_size=20))
    def test_between_min_and_max(self, values):
        gm = geometric_mean(values)
        assert min(values) - 1e-9 <= gm <= max(values) + 1e-9


class TestCumulativeSum:
    def test_empty(self):
        assert cumulative_sum([]) == []

    def test_monotone_for_positive_inputs(self):
        out = cumulative_sum([1, 2, 3])
        assert out == [1, 3, 6]
        assert all(b >= a for a, b in zip(out, out[1:]))

    def test_length_preserved(self):
        assert len(cumulative_sum([5] * 7)) == 7


class TestCanonicalDoc:
    def test_collapses_containers_and_numpy(self):
        import dataclasses

        import numpy as np

        @dataclasses.dataclass
        class Point:
            x: int
            label: str

        doc = canonical_doc({
            "tuple": (1, 2),
            "set": {3},
            "np_scalar": np.int64(4),
            "np_array": np.array([5, 6]),
            "nested": Point(7, "p"),
            8: "int-key",
        })
        assert doc == {
            "tuple": [1, 2],
            "set": [3],
            "np_scalar": 4,
            "np_array": [5, 6],
            "nested": {"x": 7, "label": "p"},
            "8": "int-key",
        }

    def test_rejects_non_finite_floats(self):
        with pytest.raises(ValueError):
            canonical_doc({"bad": float("nan")})
        with pytest.raises(ValueError):
            canonical_doc(float("inf"))

    def test_rejects_unserialisable_objects(self):
        with pytest.raises(TypeError):
            canonical_doc(object())


class TestCanonicalJsonDigest:
    def test_key_order_does_not_matter(self):
        assert canonical_json_digest({"a": 1, "b": 2}) == \
            canonical_json_digest({"b": 2, "a": 1})

    def test_value_changes_do(self):
        assert canonical_json_digest({"a": 1}) != \
            canonical_json_digest({"a": 2})

    def test_length_parameter(self):
        assert len(canonical_json_digest({"a": 1}, length=40)) == 40
