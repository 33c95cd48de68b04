"""Security analysis: mutual information, leakage curves, attacks.

Implements the paper's evaluation instruments:

* plug-in mutual-information estimation between intrinsic and shaped
  traffic (section IV-B) — both positionally paired inter-arrival
  sequences and windowed-rate MI (what a bus-probing adversary
  actually computes);
* the accumulated response-time-difference curve of Figure 9;
* the covert-channel decoder used against the Algorithm-1 sender
  (Figures 14/15) and a co-runner distinguisher for the side channel.
"""

from repro.security.bounds import (
    bdc_leakage_bound,
    epoch_rate_leakage_bound,
    leakage_per_second,
    replenishment_window_leakage_bound,
)
from repro.security.attacks import (
    bit_error_rate,
    corunner_distinguishability,
    decode_covert_key,
    decode_covert_key_matched,
)
from repro.security.prober import (
    classify_conflicts,
    conflict_information,
    prober_trace,
)
from repro.security.leakage import (
    accumulated_response_difference,
    response_rate_series,
)
from repro.security.mutual_information import (
    entropy_bits,
    interarrival_mi,
    mutual_information_bits,
    windowed_rate_mi,
)
from repro.security.detect import (
    DetectReport,
    classifier_aucs,
    detect_report,
    max_cross_correlation,
    roc_auc,
    spectral_peak_ratio,
)

__all__ = [
    "accumulated_response_difference",
    "bdc_leakage_bound",
    "epoch_rate_leakage_bound",
    "leakage_per_second",
    "replenishment_window_leakage_bound",
    "bit_error_rate",
    "classify_conflicts",
    "conflict_information",
    "corunner_distinguishability",
    "decode_covert_key",
    "decode_covert_key_matched",
    "prober_trace",
    "DetectReport",
    "classifier_aucs",
    "detect_report",
    "max_cross_correlation",
    "roc_auc",
    "spectral_peak_ratio",
    "entropy_bits",
    "interarrival_mi",
    "mutual_information_bits",
    "response_rate_series",
    "windowed_rate_mi",
]
