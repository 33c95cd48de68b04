"""Tests for the two-VM interference covert channel (section II-A).

This channel rides on memory contention rather than bus visibility; in
this substrate it is much weaker than the bus channel (the open-loop
trace sender drifts under contention), so the assertions are on the
*correlation* between the key and the receiver's latency envelope —
exactly reproducible because the simulator is deterministic.
"""

import dataclasses

import pytest

from repro.analysis.experiments import (
    ExperimentDefaults,
    covert_interference_experiment,
)
from repro.common.errors import ConfigurationError

DEFAULTS = dataclasses.replace(
    ExperimentDefaults(), accesses=2000, cycles=20000
)
PARAMS = dict(key=0x2AAAAA, bits=24, defaults=DEFAULTS, pulse_cycles=4000)


@pytest.fixture(scope="module")
def results():
    """The experiment is deterministic: run each defense once."""
    return {
        defense: covert_interference_experiment(defense=defense, **PARAMS)
        for defense in (None, "reqc", "respc")
    }


class TestStructure:
    def test_returns_expected_fields(self, results):
        result = results[None]
        assert set(result) == {
            "key_bits", "window_mean_latency", "decoded_bits",
            "bit_error_rate", "latency_key_correlation",
            "receiver_probes",
        }
        assert len(result["decoded_bits"]) == 24
        assert result["receiver_probes"] > 100

    def test_rejects_unknown_defense(self):
        with pytest.raises(ConfigurationError):
            covert_interference_experiment(defense="tinfoil", **PARAMS)


class TestChannelAndDefenses:
    def test_open_channel_correlates(self, results):
        """Undefended, the receiver's latency tracks the key bits."""
        assert results[None]["latency_key_correlation"] > 0.25

    def test_reqc_on_sender_closes_channel(self, results):
        open_corr = results[None]["latency_key_correlation"]
        defended = results["reqc"]["latency_key_correlation"]
        assert abs(defended) < open_corr / 2

    def test_respc_on_receiver_weakens_channel(self, results):
        open_corr = results[None]["latency_key_correlation"]
        defended = results["respc"]["latency_key_correlation"]
        assert abs(defended) < open_corr

    def test_defended_decoding_near_chance(self, results):
        for defense in ("reqc", "respc"):
            assert results[defense]["bit_error_rate"] >= 0.3
