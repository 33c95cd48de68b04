"""Tests for the detectability lab (the attacker zoo).

Covers the estimator bug fixes this lab was built to catch — the
histogram right-edge clamp and the bias-correction policy in the
windowed MI — plus the zoo itself: ROC/AUC plumbing, classifier
determinism, the correlation/spectral probes, report digests, and the
end-to-end covert-channel claim (an unshaped sender is trivially
detectable; the shaped stream carries almost none of the secret).
"""

import hashlib
import json

import numpy as np
import pytest

from repro.analysis.experiments import (
    ExperimentDefaults,
    detect_suite,
    staircase_config,
    tradeoff_sweep,
)
from repro.common.rng import DeterministicRng
from repro.common.util import canonical_doc, canonical_json_digest
from repro.core.bins import BinSpec
from repro.parallel import SweepExecutor
from repro.security.detect import (
    FEATURE_NAMES,
    GradientBoostedStumps,
    classifier_aucs,
    detect_report,
    max_cross_correlation,
    quantize_gaps,
    roc_auc,
    sample_target_gaps,
    segment_features,
    spectral_peak_ratio,
)
from repro.security.mutual_information import windowed_counts, windowed_rate_mi
from repro.sim.system import RequestShapingPlan, SystemBuilder
from repro.workloads.covert import (
    CovertChannelConfig,
    covert_sender_trace,
    key_to_bits,
)

SPEC = BinSpec()


# ---------------------------------------------------------------------------
# satellite fixes: histogram edge handling / bias-correction policy
# ---------------------------------------------------------------------------


class TestWindowedCountsEdges:
    def test_sample_on_rightmost_edge_lands_in_last_bin(self):
        # Regression: an event exactly on start + num_windows * window
        # used to be silently dropped by the half-open convention.
        counts = windowed_counts([1000], 100, 10)
        assert counts[-1] == 1
        assert counts.sum() == 1

    def test_sample_beyond_rightmost_edge_still_dropped(self):
        counts = windowed_counts([1001], 100, 10)
        assert counts.sum() == 0

    def test_interior_events_unchanged(self):
        counts = windowed_counts([0, 99, 100, 950], 100, 10)
        assert counts[0] == 2 and counts[1] == 1 and counts[9] == 1

    def test_start_cycle_offset(self):
        counts = windowed_counts([1500], 100, 10, start_cycle=500)
        assert counts[-1] == 1

    def test_bias_correction_reduces_windowed_mi(self):
        # The sweep policy is bias_correction=True; the Miller–Madow
        # term must actually be applied in the windowed path.
        rng = DeterministicRng(3)
        times_x = np.cumsum([rng.randint(1, 64) for _ in range(256)])
        times_y = np.cumsum([rng.randint(1, 64) for _ in range(256)])
        plain = windowed_rate_mi(list(times_x), list(times_y), 128, 8192)
        corrected = windowed_rate_mi(
            list(times_x), list(times_y), 128, 8192, bias_correction=True
        )
        assert corrected < plain


# ---------------------------------------------------------------------------
# ROC / classifiers
# ---------------------------------------------------------------------------


class TestRocAuc:
    def test_perfect_separation(self):
        assert roc_auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == pytest.approx(1.0)

    def test_inverted_separation(self):
        assert roc_auc([0.9, 0.8, 0.2, 0.1], [0, 0, 1, 1]) == pytest.approx(0.0)

    def test_all_tied_scores(self):
        assert roc_auc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == pytest.approx(0.5)

    def test_empty_class_abstains(self):
        assert roc_auc([0.1, 0.9], [1, 1]) == 0.5

    def test_partial_overlap(self):
        auc = roc_auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1])
        assert 0.5 < auc < 1.0


def _gaps_from_bins(bin_index, count, rng):
    """Gaps drawn inside one bin's interval (noisy single-bin stream)."""
    lo = SPEC.edges[bin_index]
    hi = SPEC.edges[bin_index + 1] - 1
    return [rng.randint(lo, hi) for _ in range(count)]


class TestClassifiers:
    def test_separable_distributions_score_high(self):
        rng = DeterministicRng(11)
        positive = segment_features(_gaps_from_bins(2, 512, rng), SPEC)
        negative = segment_features(_gaps_from_bins(6, 512, rng), SPEC)
        out = classifier_aucs(positive, negative, DeterministicRng(5))
        assert out["auc"] >= 0.95

    def test_identical_distributions_score_near_half(self):
        rng = DeterministicRng(11)
        gaps = _gaps_from_bins(4, 1024, rng)
        positive = segment_features(gaps[:512], SPEC)
        negative = segment_features(gaps[512:], SPEC)
        out = classifier_aucs(positive, negative, DeterministicRng(5))
        assert out["auc"] <= 0.75

    def test_too_few_segments_abstains(self):
        rng = DeterministicRng(11)
        tiny = segment_features(_gaps_from_bins(2, 48, rng), SPEC)
        out = classifier_aucs(tiny, tiny, DeterministicRng(5))
        assert out == {"logistic": 0.5, "stumps": 0.5, "auc": 0.5}

    def test_feature_matrix_shape(self):
        rng = DeterministicRng(11)
        features = segment_features(_gaps_from_bins(3, 160, rng), SPEC)
        assert features.shape == (10, len(FEATURE_NAMES))

    def test_same_seed_same_aucs(self):
        rng = DeterministicRng(11)
        positive = segment_features(_gaps_from_bins(2, 512, rng), SPEC)
        negative = segment_features(_gaps_from_bins(3, 512, rng), SPEC)
        first = classifier_aucs(positive, negative, DeterministicRng(9))
        second = classifier_aucs(positive, negative, DeterministicRng(9))
        assert first == second

    def test_stump_fit_pinned(self):
        """The boosted stumps pick the same splits, in the same order,
        as when every round re-derived its candidate thresholds."""
        rng = np.random.default_rng(7)
        X = rng.normal(size=(200, 4))
        y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(float)
        model = GradientBoostedStumps().fit(X, y)
        assert len(model._stumps) == 40

        def digest(blob):
            return hashlib.sha256(blob).hexdigest()[:16]

        assert digest(repr(model._stumps).encode()) == "0f1f921f651e1bf2"
        assert digest(model.scores(X).tobytes()) == "147c057a760d63d1"


    @pytest.mark.parametrize("seed", [3, 7, 11])
    def test_stump_fit_matches_the_masked_mean_reference(self, seed):
        """``fit`` takes each side's mean as a sum over an index array
        divided by its count; the masked ``.mean()`` it replaced must
        give the same stumps to the last bit."""
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(160, 5))
        X[:, 3] = np.round(X[:, 3])  # ties: repeated quantiles
        y = (X[:, 0] - X[:, 2] + rng.normal(scale=0.5, size=160) > 0)
        fitted = GradientBoostedStumps().fit(X, y.astype(float))
        reference = _masked_mean_stumps(X, y.astype(float))

        def bits(stumps):
            return [(j, thr.hex(), lv.hex(), rv.hex())
                    for j, thr, lv, rv in stumps]

        assert bits(fitted._stumps) == bits(reference)


def _masked_mean_stumps(X, y, rounds=40, learning_rate=0.3, quantiles=8):
    """``GradientBoostedStumps.fit`` as it was with masked means: the
    reference its index-array form is checked against."""
    from repro.security.detect import _sigmoid

    F = np.zeros(len(y))
    qs = np.linspace(0.1, 0.9, quantiles)
    splits = []
    for j in range(X.shape[1]):
        col = X[:, j]
        for thr in np.unique(np.quantile(col, qs)):
            left = col <= thr
            n_left = int(left.sum())
            if 0 < n_left < len(col):
                splits.append((j, float(thr), left, ~left))
    stumps = []
    for _ in range(rounds):
        g = y - _sigmoid(F)
        best = None
        for j, thr, left, right in splits:
            lv = float(g[left].mean())
            rv = float(g[right].mean())
            err = float(((np.where(left, lv, rv) - g) ** 2).sum())
            if best is None or err < best[0] - 1e-15:
                best = (err, j, thr, lv, rv)
        _, j, thr, lv, rv = best
        stumps.append((j, thr, lv, rv))
        F += learning_rate * np.where(X[:, j] <= thr, lv, rv)
    return stumps


class TestProbes:
    def test_xcorr_identical_series(self):
        series = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
        assert max_cross_correlation(series, series) == pytest.approx(1.0)

    def test_xcorr_lagged_copy(self):
        series = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0]
        assert max_cross_correlation(
            series[2:], series[:-2]
        ) == pytest.approx(1.0)

    def test_xcorr_constant_series_is_zero(self):
        assert max_cross_correlation([5.0] * 16, [1.0, 2.0] * 8) == 0.0

    def test_xcorr_never_exceeds_one(self):
        rng = DeterministicRng(2)
        series = [rng.random() for _ in range(64)]
        assert max_cross_correlation(series, series) <= 1.0

    def test_spectral_tone_dominates(self):
        tone = [np.sin(2 * np.pi * k / 8.0) for k in range(64)]
        assert spectral_peak_ratio(tone) > 100.0

    def test_spectral_degenerate_inputs(self):
        assert spectral_peak_ratio([1.0] * 64) == 1.0
        assert spectral_peak_ratio([1.0, 2.0]) == 1.0


# ---------------------------------------------------------------------------
# reports, determinism and the GA scalarization
# ---------------------------------------------------------------------------


def _noisy_gaps(count, rng):
    return [rng.randint(1, 400) for _ in range(count)]


class TestDetectReport:
    def test_digest_stable_across_runs(self):
        rng = DeterministicRng(17)
        intrinsic = _noisy_gaps(600, rng)
        observed = _noisy_gaps(600, rng)
        target = staircase_config(SPEC, 0.027).normalized()
        first = detect_report("x", intrinsic, observed, SPEC, target, seed=5)
        second = detect_report("x", intrinsic, observed, SPEC, target, seed=5)
        assert first == second
        assert first.as_doc() == second.as_doc()

    def test_quantize_gaps_snaps_to_lower_edges(self):
        gaps = [1, 3, 7, 900]
        snapped = quantize_gaps(gaps, SPEC)
        assert snapped == [SPEC.edges[SPEC.bin_of(g)] for g in gaps]

    def test_sample_target_gaps_deterministic_and_on_edges(self):
        target = staircase_config(SPEC, 0.027).normalized()
        first = sample_target_gaps(SPEC, target, 128, DeterministicRng(3))
        second = sample_target_gaps(SPEC, target, 128, DeterministicRng(3))
        assert first == second
        assert set(first) <= set(SPEC.edges)

    def test_windowed_scores_abstain_without_target(self):
        rng = DeterministicRng(17)
        gaps = _noisy_gaps(600, rng)
        report = detect_report("window", gaps, gaps, SPEC, None, seed=1)
        assert report.auc is None
        assert report.auc_logistic is None and report.auc_stumps is None
        assert report.xcorr == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# end-to-end: the covert channel against the zoo
# ---------------------------------------------------------------------------


def _covert_run(key, plan, cycles=80000, seed=42):
    trace = covert_sender_trace(key_to_bits(key, 16), CovertChannelConfig())
    builder = SystemBuilder(seed=seed)
    builder.add_core(trace, request_shaping=plan)
    return builder.build().run(cycles, stop_when_done=False).core(0)


class TestCovertEndToEnd:
    @pytest.fixture(scope="class")
    def runs(self):
        spec = ExperimentDefaults().spec
        config = staircase_config(spec, 0.027)
        shaped_a = _covert_run(
            0xAAAA, RequestShapingPlan(config=config, spec=spec)
        )
        shaped_b = _covert_run(
            0x5555, RequestShapingPlan(config=config, spec=spec)
        )
        unshaped = _covert_run(0xAAAA, None)
        return spec, config, shaped_a, shaped_b, unshaped

    def test_unshaped_sender_is_trivially_detectable(self, runs):
        spec, config, _, _, unshaped = runs
        report = detect_report(
            "unshaped", unshaped.request_intrinsic.gaps,
            unshaped.request_intrinsic.gaps, spec,
            config.normalized(), seed=42,
        )
        assert report.auc >= 0.9
        assert report.xcorr >= 0.9

    def test_shaped_stream_hides_the_secret(self, runs):
        # The two-world attacker: distinguish key 0xAAAA's shaped
        # stream from key 0x5555's.  Shaping pushes the classifiers
        # toward coin-flipping and collapses the rate correlation.
        spec, config, shaped_a, shaped_b, unshaped = runs
        secret = detect_report(
            "secret", shaped_a.request_intrinsic.gaps,
            shaped_a.request_shaped.gaps, spec, config.normalized(),
            seed=42, reference_gaps=shaped_b.request_shaped.gaps,
        )
        assert secret.auc <= 0.7
        assert secret.xcorr <= 0.4
        # And the classic MI view agrees: shaping strips most of the
        # rate information the unshaped stream exposes.
        baseline = detect_report(
            "unshaped", unshaped.request_intrinsic.gaps,
            unshaped.request_intrinsic.gaps, spec,
            config.normalized(), seed=42,
        )
        assert secret.mi_bits < 0.5 * baseline.mi_bits


# ---------------------------------------------------------------------------
# the canned suite: determinism across jobs and runs
# ---------------------------------------------------------------------------


#: ``repro --scale 0.25 sweep tradeoff`` stdout before ladder rows
#: carried ``requested_rate`` / ``granted_rate`` (any ``--jobs``).
_TRADEOFF_SHA256_WITHOUT_RATES = {
    "gcc": "15f52783aef30f9305869e0fbdb864fd"
           "bd5664556348c360955b01560aeb4381",
    "apache": "ff65a099371ca9827b441ccad852b2fe"
              "defa2d6dd5298bd54e210f9cc1ce5882",
}


def _without_rates(doc):
    """``doc`` with the two rate fields dropped from every row."""
    return dict(doc, rows=[
        {k: v for k, v in row.items()
         if k not in ("requested_rate", "granted_rate")}
        for row in doc["rows"]
    ])


class TestDetectSuite:
    def test_jobs_invariant_and_digest_stable(self):
        defaults = ExperimentDefaults().scaled(0.2)
        serial = detect_suite("apache", defaults, jobs=1)
        parallel = detect_suite("apache", defaults, jobs=2)
        assert canonical_doc(serial) == canonical_doc(parallel)
        assert serial["digest"] == parallel["digest"]
        labels = [row["label"] for row in serial["rows"]]
        assert labels[0] == "no-shaping"
        assert "cs" in labels
        for row in serial["rows"]:
            for column in ("mi", "auc", "xcorr", "spectral"):
                assert column in row

    def test_scores_equal_the_tradeoff_sweep_on_shared_machines(self):
        # Both sweeps simulate the no-shaping, CS and staircase rungs;
        # where the run digests agree the machine is the same, so every
        # score must be too (one scorer, one MI definition).
        defaults = ExperimentDefaults().scaled(0.2)
        scales = (0.8, 1.2)
        detect = {
            row["label"]: row
            for row in detect_suite("apache", defaults, scales)["rows"]
        }
        tradeoff = {
            row["label"]: row
            for row in tradeoff_sweep("apache", defaults, scales)
        }
        shared = [
            label for label in detect
            if label in tradeoff
            and detect[label]["digest"] == tradeoff[label]["digest"]
        ]
        assert shared == ["no-shaping", "cs", "camo-x0.8", "camo-x1.2"]
        columns = ("mi", "auc", "auc_logistic", "auc_stumps", "xcorr",
                   "spectral")
        for label in shared:
            assert [detect[label][c] for c in columns] == [
                tradeoff[label][c] for c in columns
            ], label

    def test_climbs_the_ladder_in_five_tasks(self):
        # The alone-base run doubles as the no-shaping rung, scored by
        # one more tradeoff-point task that simulates nothing; the CS
        # and two staircase rungs are one tradeoff-point task each.
        defaults = ExperimentDefaults().scaled(0.2)
        executor = SweepExecutor(jobs=1, seed=defaults.seed)
        detect_suite("apache", defaults, executor=executor)
        assert executor.tasks_run == 5

    def test_served_from_the_cache_after_the_tradeoff_sweep(self, tmp_path):
        defaults = ExperimentDefaults().scaled(0.2)
        tradeoff_sweep(
            "apache", defaults, (0.8, 1.2), cache_dir=str(tmp_path)
        )
        executor = SweepExecutor(
            jobs=1, seed=defaults.seed, cache=str(tmp_path)
        )
        detect_suite("apache", defaults, executor=executor)
        assert (executor.tasks_run, executor.tasks_cached) == (0, 5)

    def test_equal_credits_share_a_cache_entry_across_labels(self, tmp_path):
        # At gcc's scaled(0.25) rate, camo-x1.2 is granted camo-x0.6's
        # single credit: the detect suite's rung is the tradeoff sweep's
        # machine under another label, so it costs no simulation.
        defaults = ExperimentDefaults().scaled(0.25)
        tradeoff_sweep("gcc", defaults, cache_dir=str(tmp_path))
        executor = SweepExecutor(
            jobs=1, seed=defaults.seed, cache=str(tmp_path)
        )
        rows = {
            row["label"]: row
            for row in detect_suite("gcc", defaults,
                                    executor=executor)["rows"]
        }
        assert executor.tasks_run == 0
        assert rows["camo-x1.2"]["granted_rate"] == 1 / 512

    def test_cli_stdout_is_pinned(self, capsys):
        from repro.cli import main

        assert main(
            ["--scale", "0.25", "detect", "--benchmark", "apache"]
        ) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "dea83ff97e78b8e8a47a5e6f01e3f428b7c1e2d9"
            "b318a30dfc19e080b4345de4"
        )
        doc = json.loads(out)
        assert doc["digest"] == "f4d96b97ba5442f2"
        # Without the two rate fields, the document is the one printed
        # before rows carried them.
        del doc["digest"]
        assert canonical_json_digest(_without_rates(doc)) == (
            "3a00758f0010f08f"
        )

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("program", ["gcc", "apache"])
    def test_sweep_tradeoff_is_pinned_without_the_rates(
        self, capsys, program, jobs
    ):
        from repro.cli import main

        assert main(["--scale", "0.25", "sweep", "tradeoff",
                     "--benchmark", program, "--jobs", str(jobs)]) == 0
        rows = _without_rates(
            {"rows": json.loads(capsys.readouterr().out)}
        )["rows"]
        text = json.dumps(canonical_doc(rows), sort_keys=True, indent=2)
        assert hashlib.sha256((text + "\n").encode()).hexdigest() == (
            _TRADEOFF_SHA256_WITHOUT_RATES[program]
        )
