"""Detectability lab: the attacker zoo (ROADMAP item 2).

Plug-in mutual information is *one* attacker.  The adversarial-learning
side-channel literature (PAPERS.md) shows trained classifiers routinely
beat MI at distinguishing shaped traffic from the distribution it
claims to follow, and Gong–Kiyavash's scheduler analysis shows leakage
metrics are estimator-sensitive.  This module scores a shaper
configuration against a small zoo of attackers simultaneously:

* **ROC/AUC over trained classifiers** — a logistic model and a
  gradient-boosted-stump ensemble (stdlib + numpy only, no sklearn)
  are trained to tell *observed-trace* segments from segments of a
  synthetic trace drawn from the configured target distribution.
  AUC ≈ 0.5 means the shaped stream is indistinguishable from its
  target; AUC → 1.0 means a cheap learner can spot the shaping
  residue.  Features are inter-arrival / burst / window-count
  statistics per fixed-length segment (:data:`FEATURE_NAMES`).
* **Max cross-correlation** — the strongest normalised correlation
  between intrinsic and observed per-window rates over a small lag
  range.  1.0 means the observed bus mirrors the program (no shaping);
  ≈ 0 means the shaper decorrelated them.
* **Spectral probe** — periodogram peak-to-median ratio of the
  observed per-window counts.  A covert sender's ON/OFF pulse or a
  fixed-chaff signature shows up as a dominant line; an i.i.d. target
  stream does not.
* **Windowed-rate MI** — between the intrinsic and observed
  per-window rates (:func:`repro.security.mutual_information.gap_rate_mi`).

Determinism: every stochastic step (target-trace synthesis, the
train/test split) draws from :class:`~repro.common.rng.DeterministicRng`
substreams of one seed, so a :class:`DetectReport` — and its canonical
digest — is a pure function of ``(traces, spec, target, seed)``.  The
adversary's clock granularity is the bin geometry itself: gaps are
quantized to their bin's lower edge on *both* sides before
featurization, so classifiers measure distributional and ordering
structure, never sub-bin timing the hardware model does not expose.
The cross-correlation and spectral probes count events on that same
quantized clock; only the MI windows raw event times over the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError
from repro.common.rng import DeterministicRng
from repro.common.util import canonical_json_digest
from repro.core.bins import BinSpec
from repro.security.mutual_information import gap_rate_mi, windowed_counts

if TYPE_CHECKING:
    import numpy as np

#: Per-segment feature vector, in order.
FEATURE_NAMES: Tuple[str, ...] = (
    "log_mean_gap",      # log1p of the mean inter-arrival time
    "cv_gap",            # coefficient of variation of the gaps
    "burst_fraction",    # fraction of gaps below the burst edge
    "tail_fraction",     # fraction of gaps at/above the largest edge
    "count_mean",        # mean per-window event count
    "count_std",         # std of per-window event counts
    "count_peak",        # max per-window event count
)

#: Gaps per classifier segment (one training example).
DEFAULT_SEGMENT_GAPS = 16

#: Minimum test examples per class for a meaningful AUC; below this the
#: classifiers abstain and score a non-committal 0.5.
_MIN_SEGMENTS_PER_CLASS = 4


def quantize_gaps(gaps: Sequence[int], spec: BinSpec) -> List[int]:
    """Snap each gap to its bin's lower edge (the attacker's clock)."""
    edges = spec.edges
    return [edges[spec.bin_of(int(g))] for g in gaps]


def sample_target_gaps(
    spec: BinSpec,
    frequencies: Sequence[float],
    count: int,
    rng: DeterministicRng,
) -> List[int]:
    """Synthesize ``count`` i.i.d. gaps from a target bin distribution.

    Each draw picks a bin by inverse-CDF over ``frequencies`` and emits
    that bin's lower edge — the same quantized view
    :func:`quantize_gaps` gives of a real trace, so synthetic and
    observed traces are compared on equal footing.
    """
    if len(frequencies) != spec.num_bins:
        raise ConfigurationError(
            "target distribution has wrong number of bins "
            f"({len(frequencies)} vs {spec.num_bins})"
        )
    total = float(sum(frequencies))
    if total <= 0.0:
        raise ConfigurationError("target distribution has no mass")
    cdf: List[float] = []
    acc = 0.0
    for f in frequencies:
        acc += f / total
        cdf.append(acc)
    cdf[-1] = 1.0
    out: List[int] = []
    for _ in range(count):
        u = rng.random()
        index = 0
        while index < len(cdf) - 1 and u > cdf[index]:
            index += 1
        out.append(spec.edges[index])
    return out


def segment_features(
    gaps: Sequence[int],
    spec: BinSpec,
    segment_gaps: int = DEFAULT_SEGMENT_GAPS,
) -> np.ndarray:
    """Featurize a gap sequence into ``(n_segments, n_features)``.

    Consecutive runs of ``segment_gaps`` quantized gaps become one
    example; a trailing partial segment is discarded (its statistics
    would be noisier than the rest and bias whichever class owns it).
    """
    import numpy as np

    if segment_gaps < 2:
        raise ConfigurationError("segment_gaps must be at least 2")
    q = quantize_gaps(gaps, spec)
    n_segments = len(q) // segment_gaps
    features = np.zeros((n_segments, len(FEATURE_NAMES)))
    if n_segments == 0:
        return features
    burst_edge = spec.edges[min(2, spec.num_bins - 1)]
    tail_edge = spec.edges[-1]
    for s in range(n_segments):
        seg = np.asarray(q[s * segment_gaps:(s + 1) * segment_gaps],
                         dtype=np.int64)
        mean = float(seg.mean())
        std = float(seg.std())
        times = np.cumsum(seg)
        span = int(times[-1])
        # Quarter-span windows: counts measure the segment's *internal*
        # burstiness irrespective of its absolute rate (a fixed-cycle
        # window would mostly re-encode the mean gap — segments shorter
        # than one window all collapse to a single full count).
        counts = windowed_counts(times, max(1, span // 4), 4)
        features[s] = (
            math.log1p(mean),
            std / mean if mean > 0 else 0.0,
            float((seg < burst_edge).mean()),
            float((seg >= tail_edge).mean()),
            float(counts.mean()),
            float(counts.std()),
            float(counts.max()),
        )
    return features


# ---------------------------------------------------------------------------
# classifiers (stdlib + numpy; deterministic by construction)
# ---------------------------------------------------------------------------


def _sigmoid(z: np.ndarray) -> np.ndarray:
    import numpy as np

    return 1.0 / (1.0 + np.exp(-np.clip(z, -30.0, 30.0)))


class LogisticClassifier:
    """Full-batch gradient-descent logistic regression.

    Features are standardized with training-set statistics; the descent
    is deterministic (zero init, fixed step count), so two fits on the
    same data produce bit-identical scores.
    """

    def __init__(self, learning_rate: float = 0.5, iterations: int = 200,
                 l2: float = 1e-3) -> None:
        self.learning_rate = learning_rate
        self.iterations = iterations
        self.l2 = l2
        self._mean: Optional[np.ndarray] = None
        self._std: Optional[np.ndarray] = None
        self._weights: Optional[np.ndarray] = None

    def _standardize(self, X: np.ndarray) -> np.ndarray:
        return (X - self._mean) / self._std

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LogisticClassifier":
        import numpy as np

        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        self._mean = X.mean(axis=0)
        self._std = np.maximum(X.std(axis=0), 1e-9)
        Xs = np.hstack([self._standardize(X), np.ones((len(X), 1))])
        w = np.zeros(Xs.shape[1])
        for _ in range(self.iterations):
            p = _sigmoid(Xs @ w)
            grad = Xs.T @ (p - y) / len(y) + self.l2 * w
            w -= self.learning_rate * grad
        self._weights = w
        return self

    def scores(self, X: np.ndarray) -> np.ndarray:
        import numpy as np

        Xs = np.hstack([
            self._standardize(np.asarray(X, dtype=float)),
            np.ones((len(X), 1)),
        ])
        return _sigmoid(Xs @ self._weights)


class GradientBoostedStumps:
    """Gradient boosting with depth-1 regression stumps.

    Each round fits one stump (feature, threshold, left/right value) to
    the logistic-loss gradient; thresholds are feature quantiles, ties
    break toward the lowest (feature, threshold) pair, so the ensemble
    is deterministic.
    """

    def __init__(self, rounds: int = 40, learning_rate: float = 0.3,
                 quantiles: int = 8) -> None:
        self.rounds = rounds
        self.learning_rate = learning_rate
        self.quantiles = quantiles
        self._stumps: List[Tuple[int, float, float, float]] = []
        self._base = 0.0

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GradientBoostedStumps":
        import numpy as np

        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        self._stumps = []
        self._base = 0.0
        F = np.zeros(len(y))
        qs = np.linspace(0.1, 0.9, self.quantiles)
        # The candidate splits depend on X alone, not on the round: each
        # keeps its mask and the index arrays of both sides.
        splits = []
        for j in range(X.shape[1]):
            col = X[:, j]
            for thr in np.unique(np.quantile(col, qs)):
                left = col <= thr
                n_left = int(left.sum())
                if 0 < n_left < len(col):
                    splits.append((j, float(thr), left,
                                   np.flatnonzero(left),
                                   np.flatnonzero(~left)))
        if not splits:
            return self
        for _ in range(self.rounds):
            g = y - _sigmoid(F)  # negative gradient of logistic loss
            best: Optional[Tuple[float, int, float, float, float]] = None
            for j, thr, left, left_idx, right_idx in splits:
                # What ``g[mask].mean()`` computes (the same pairwise sum
                # over the same elements, divided by the count), without
                # its mask scan and reduction set-up.
                lv = float(g[left_idx].sum() / len(left_idx))
                rv = float(g[right_idx].sum() / len(right_idx))
                err = float(((np.where(left, lv, rv) - g) ** 2).sum())
                if best is None or err < best[0] - 1e-15:
                    best = (err, j, thr, lv, rv)
            _, j, thr, lv, rv = best
            self._stumps.append((j, thr, lv, rv))
            F += self.learning_rate * np.where(X[:, j] <= thr, lv, rv)
        return self

    def scores(self, X: np.ndarray) -> np.ndarray:
        import numpy as np

        X = np.asarray(X, dtype=float)
        F = np.full(len(X), self._base)
        for j, thr, lv, rv in self._stumps:
            F += self.learning_rate * np.where(X[:, j] <= thr, lv, rv)
        return _sigmoid(F)


def roc_auc(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Area under the ROC curve via the rank statistic (ties averaged)."""
    import numpy as np

    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels, dtype=int)
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    if n_pos == 0 or n_neg == 0:
        return 0.5
    order = np.argsort(s, kind="mergesort")
    sorted_s = s[order]
    ranks = np.empty(len(s))
    i = 0
    while i < len(s):
        j = i
        while j < len(s) and sorted_s[j] == sorted_s[i]:
            j += 1
        ranks[order[i:j]] = 0.5 * (i + j - 1) + 1.0
        i = j
    rank_sum = float(ranks[y == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def classifier_aucs(
    positive: np.ndarray,
    negative: np.ndarray,
    rng: DeterministicRng,
) -> Dict[str, float]:
    """Train both zoo classifiers and report held-out AUCs.

    ``positive`` are observed-trace segments, ``negative`` synthetic
    target segments.  The split is stratified half/half with the order
    shuffled by ``rng`` (the only stochastic step).  Too few segments
    per class returns the abstaining 0.5 for every attacker.
    """
    import numpy as np

    n_pos, n_neg = len(positive), len(negative)
    if (n_pos < 2 * _MIN_SEGMENTS_PER_CLASS
            or n_neg < 2 * _MIN_SEGMENTS_PER_CLASS):
        return {"logistic": 0.5, "stumps": 0.5, "auc": 0.5}
    pos_idx = list(range(n_pos))
    neg_idx = list(range(n_neg))
    rng.shuffle(pos_idx)
    rng.shuffle(neg_idx)
    pos_train = positive[pos_idx[: n_pos // 2]]
    pos_test = positive[pos_idx[n_pos // 2:]]
    neg_train = negative[neg_idx[: n_neg // 2]]
    neg_test = negative[neg_idx[n_neg // 2:]]
    X_train = np.vstack([pos_train, neg_train])
    y_train = np.concatenate(
        [np.ones(len(pos_train)), np.zeros(len(neg_train))]
    )
    X_test = np.vstack([pos_test, neg_test])
    y_test = np.concatenate([np.ones(len(pos_test)), np.zeros(len(neg_test))])
    out: Dict[str, float] = {}
    for name, model in (
        ("logistic", LogisticClassifier()),
        ("stumps", GradientBoostedStumps()),
    ):
        model.fit(X_train, y_train)
        out[name] = roc_auc(model.scores(X_test), y_test)
    # A classifier scoring below 0.5 separates the classes with the
    # sign flipped; the attacker would just invert it.
    out["auc"] = max(
        max(out["logistic"], 1.0 - out["logistic"]),
        max(out["stumps"], 1.0 - out["stumps"]),
    )
    return out


# ---------------------------------------------------------------------------
# correlation / spectral probes
# ---------------------------------------------------------------------------


def max_cross_correlation(
    x_counts: Sequence[float],
    y_counts: Sequence[float],
    max_lag: int = 8,
) -> float:
    """Max |normalised cross-correlation| over lags in [-max_lag, max_lag].

    1.0 when the observed per-window rates mirror the intrinsic ones at
    some alignment; 0.0 when either series is constant (a constant
    stream carries no rate signal to correlate on).
    """
    import numpy as np

    x = np.asarray(x_counts, dtype=float)
    y = np.asarray(y_counts, dtype=float)
    n = min(len(x), len(y))
    if n < 2:
        return 0.0
    x = x[:n]
    y = y[:n]
    best = 0.0
    for lag in range(-max_lag, max_lag + 1):
        # Overlap length at this alignment; guard BEFORE slicing — a
        # negative n+lag slice index would silently wrap and pair a
        # non-empty window with an empty one.
        span = n - abs(lag)
        if span < 2:
            continue
        if lag >= 0:
            a, b = x[lag:lag + span], y[:span]
        else:
            a, b = x[:span], y[-lag:-lag + span]
        sa, sb = a.std(), b.std()
        if sa <= 0.0 or sb <= 0.0:
            continue
        r = float(((a - a.mean()) * (b - b.mean())).mean() / (sa * sb))
        best = max(best, abs(r))
    return min(best, 1.0)  # rounding can push |r| a ulp past 1


def spectral_peak_ratio(counts: Sequence[float]) -> float:
    """Periodogram peak-to-median power ratio of a count series.

    A periodic sender concentrates power in one line (ratio ≫ 1); an
    i.i.d. stream spreads it (ratio near 1).  Degenerate inputs — too
    short or constant — report 1.0 (no periodicity evidence).  The
    ratio is capped at 1e6 so downstream canonical JSON stays finite
    even for a pure tone whose median off-peak power underflows.
    """
    import numpy as np

    c = np.asarray(counts, dtype=float)
    if len(c) < 8 or c.std() <= 0.0:
        return 1.0
    power = np.abs(np.fft.rfft(c - c.mean())) ** 2
    power = power[1:]  # drop DC (zero by construction, up to rounding)
    if len(power) < 2:
        return 1.0
    peak = float(power.max())
    median = float(np.median(power))
    if peak <= 0.0:
        return 1.0
    return float(min(peak / max(median, peak * 1e-12), 1e6))


# ---------------------------------------------------------------------------
# the per-config report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DetectReport:
    """One configuration's score against the whole zoo (the AUC fields
    are None when no negative class was given)."""

    label: str
    seed: int
    segments: int          # observed-trace segments the classifiers saw
    auc_logistic: Optional[float]
    auc_stumps: Optional[float]
    auc: Optional[float]   # best attacker (sign-folded)
    xcorr: float
    spectral: float
    mi_bits: float

    def score_row(self, mi_key: str = "mi") -> Dict[str, Optional[float]]:
        """The zoo's six scores, as every sweep row and :meth:`as_doc`
        carry them (the MI column is ``mi`` in rows, ``mi_bits`` here)."""
        return {
            mi_key: self.mi_bits,
            "auc": self.auc,
            "auc_logistic": self.auc_logistic,
            "auc_stumps": self.auc_stumps,
            "xcorr": self.xcorr,
            "spectral": self.spectral,
        }

    def as_doc(self) -> Dict[str, object]:
        """Canonical JSON document, digest included."""
        doc: Dict[str, object] = {
            "label": self.label,
            "seed": self.seed,
            "segments": self.segments,
            **self.score_row("mi_bits"),
        }
        doc["digest"] = canonical_json_digest(doc)
        return doc

    def digest(self) -> str:
        return str(self.as_doc()["digest"])


def detect_report(
    label: str,
    intrinsic_gaps: Sequence[int],
    observed_gaps: Sequence[int],
    spec: BinSpec,
    target_frequencies: Optional[Sequence[float]],
    seed: int,
    segment_gaps: int = DEFAULT_SEGMENT_GAPS,
    window_cycles: Optional[int] = None,
    run_cycles: Optional[int] = None,
    reference_gaps: Optional[Sequence[int]] = None,
) -> DetectReport:
    """Score one trace against the zoo; pure in ``(inputs, seed)``.

    This is the one scorer every zoo score goes through: the sweep
    tasks, the config ladder's no-shaping anchor and the live monitor.
    ``observed_gaps`` is what the adversary sees on the bus (the shaped
    stream, fake traffic included); ``intrinsic_gaps`` is the program's
    own stream (for the cross-correlation attacker and the MI);
    ``target_frequencies`` is the distribution the shaper claims to
    follow.  ``mi_bits`` is :func:`gap_rate_mi` over ``run_cycles``
    (default: the last raw event time of either stream).

    The classifiers' negative class defaults to i.i.d. synthesis from
    the target distribution — detectability *from the target*, which
    also penalises ordering structure (credit depletion, bursty
    demand) an i.i.d. process cannot have.  ``reference_gaps`` swaps
    in the two-world attacker instead: the negative class is another
    observed trace (a different program or secret under the same
    shaper), and AUC ≈ 0.5 then states the paper's property directly —
    the shaped stream carries no program identity.  With neither, the
    classifiers do not run and the AUC fields are None.
    """
    import numpy as np

    root = DeterministicRng(int(seed))
    positive = segment_features(observed_gaps, spec, segment_gaps)
    aucs: Dict[str, Optional[float]] = dict.fromkeys(
        ("logistic", "stumps", "auc")
    )
    if reference_gaps is not None or target_frequencies is not None:
        if reference_gaps is not None:
            negative_gaps: Sequence[int] = reference_gaps
        else:
            negative_gaps = sample_target_gaps(
                spec, target_frequencies, len(observed_gaps),
                root.substream(0),
            )
        negative = segment_features(negative_gaps, spec, segment_gaps)
        aucs = classifier_aucs(positive, negative, root.substream(1))

    wc = int(window_cycles) if window_cycles else spec.replenish_period
    x_times = np.cumsum(quantize_gaps(intrinsic_gaps, spec)) \
        if len(intrinsic_gaps) else np.zeros(0, dtype=np.int64)
    y_times = np.cumsum(quantize_gaps(observed_gaps, spec)) \
        if len(observed_gaps) else np.zeros(0, dtype=np.int64)
    span = int(max(
        x_times[-1] if len(x_times) else 0,
        y_times[-1] if len(y_times) else 0,
    ))
    num_windows = max(1, span // wc)
    x_counts = windowed_counts(x_times, wc, num_windows)
    y_counts = windowed_counts(y_times, wc, num_windows)

    if run_cycles is None:
        run_cycles = max(sum(intrinsic_gaps), sum(observed_gaps))
    return DetectReport(
        label=label,
        seed=int(seed),
        segments=len(positive),
        auc_logistic=aucs["logistic"],
        auc_stumps=aucs["stumps"],
        auc=aucs["auc"],
        xcorr=max_cross_correlation(x_counts, y_counts),
        spectral=spectral_peak_ratio(y_counts),
        mi_bits=float(
            gap_rate_mi(intrinsic_gaps, observed_gaps, wc, run_cycles)
        ),
    )
