"""Tests for repro.resilience.retry: the policy as a pure value.

``RetryPolicy.backoff_delay`` computes the exact retry schedule
(exponential growth, cap, replayable jitter) and the defaults mean no
sleeping at all.  The policy's one interpreter is the shard loop; the
schedule it actually sleeps is asserted through an injected ``sleep``
in ``tests/test_dispatch.py`` (scenario (c) and its local-lane twin).
"""

import pytest

from repro.common.errors import ConfigurationError
from repro.common.rng import DeterministicRng
from repro.resilience.retry import DEFAULT_RETRY_POLICY, RetryPolicy


class TestBackoffDelay:
    def test_disabled_by_default(self):
        assert DEFAULT_RETRY_POLICY.backoff_seconds == 0.0
        assert DEFAULT_RETRY_POLICY.backoff_delay(1) == 0.0
        assert DEFAULT_RETRY_POLICY.backoff_delay(5) == 0.0

    def test_exponential_growth(self):
        policy = RetryPolicy(
            max_attempts=4, backoff_seconds=0.125, backoff_factor=2.0
        )
        assert policy.backoff_delay(1) == 0.125
        assert policy.backoff_delay(2) == 0.25
        assert policy.backoff_delay(3) == 0.5

    def test_cap_applies(self):
        policy = RetryPolicy(
            max_attempts=8,
            backoff_seconds=0.125,
            backoff_factor=2.0,
            backoff_max_seconds=0.3,
        )
        assert policy.backoff_delay(1) == 0.125
        assert policy.backoff_delay(2) == 0.25
        assert policy.backoff_delay(3) == 0.3
        assert policy.backoff_delay(7) == 0.3

    def test_jitter_without_rng_is_midpoint(self):
        policy = RetryPolicy(
            max_attempts=2, backoff_seconds=1.0, jitter_fraction=0.5
        )
        # midpoint of U[0, 0.5) is 0.25 -> delay * 1.25
        assert policy.backoff_delay(1) == 1.25

    def test_jitter_with_rng_is_replayable(self):
        policy = RetryPolicy(
            max_attempts=2, backoff_seconds=1.0, jitter_fraction=0.5
        )
        a = policy.backoff_delay(1, rng=DeterministicRng(7))
        b = policy.backoff_delay(1, rng=DeterministicRng(7))
        assert a == b
        assert 1.0 <= a < 1.5

    def test_failed_attempts_must_be_positive(self):
        policy = RetryPolicy(max_attempts=2, backoff_seconds=0.1)
        with pytest.raises(ConfigurationError):
            policy.backoff_delay(0)


class TestPolicyValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"timeout_seconds": 0.0},
            {"backoff_seconds": -0.1},
            {"backoff_factor": 0.5},
            {"backoff_max_seconds": -1.0},
            {"jitter_fraction": 1.5},
            {"jitter_fraction": -0.1},
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ConfigurationError):
            RetryPolicy(**kwargs)
