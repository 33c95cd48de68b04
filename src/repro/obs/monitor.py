"""Live shaping monitor: running TVD/MI over the shaped streams.

The paper's guarantee is distributional: the post-shaper stream must
follow the configured bin distribution regardless of what the program
does.  End-of-run aggregates can hide a mid-run excursion (a window
where the shaper tracked the intrinsic stream and leaked); this
monitor evaluates the guarantee *while the run is going*, at fixed
cycle checkpoints, from the same intrinsic/shaped inter-arrival
histograms the shapers already maintain:

* ``tvd_target`` — total-variation distance between the shaped
  distribution and the configured target.  This is the guarantee
  itself: once enough releases have been observed, a value above the
  threshold is flagged as a :class:`Violation` with
  ``metric="tvd_target"``.
* ``tvd_intrinsic`` — TVD between intrinsic and shaped distributions
  (how much work the shaper is doing; ~0 means the shaped stream just
  mirrors the program).
* ``mi_bits`` — :func:`~repro.security.mutual_information.interarrival_mi`
  over a sliding window of paired releases (the section IV-B leakage
  estimate, evaluated online).
* ``auc`` / ``xcorr`` (``detect=True``) — the attacker zoo,
  :func:`~repro.security.detect.detect_report`, over the last
  :data:`DETECT_WINDOW` paired releases; a score above its threshold
  is a :class:`Violation` with ``metric="auc"`` or ``"xcorr"``.

The thresholds and window sizes are module constants below.

Checkpoints use the same advance/fill discipline as the interval
sampler, so the history and violation stream are identical under the
per-cycle and next-event engines (histograms only change inside
``tick``, never across a skipped span).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError
from repro.common.rng import DeterministicRng
from repro.obs.events import CATEGORY_MONITOR
from repro.obs.tracer import NULL_TRACER

if TYPE_CHECKING:  # import-leaf discipline: repro.obs must not pull
    # the simulator stack in at import time (components import the
    # tracer, and cycles would follow); heavyweight deps load lazily.
    from repro.core.distribution import InterArrivalHistogram

#: A checkpoint whose shaped-vs-target TVD exceeds this is a violation...
TVD_THRESHOLD = 0.25
#: ...once the shaped stream has at least this many releases.
MIN_EVENTS = 32
#: Paired releases the ``mi_bits`` window covers.
MI_WINDOW = 4096
#: Paired releases the zoo attackers see at each checkpoint.
DETECT_WINDOW = 256
#: Fewer paired releases than this and the zoo abstains (None scores).
DETECT_MIN_PAIRS = 32
#: A zoo score above its threshold is a :class:`Violation`.
AUC_THRESHOLD = 0.8
XCORR_THRESHOLD = 0.9
#: Root of the per-(checkpoint, stream) zoo seeds.
DETECT_SEED = 0
#: New paired releases a run-end tail needs before finalize scores it.
FINAL_MIN_PAIRS = 8


@dataclass(frozen=True)
class Violation:
    """One checkpoint at which a monitored stream beat a threshold.

    ``metric`` is ``"tvd_target"`` (the shaped stream strayed from its
    configured distribution: the guarantee itself), ``"auc"`` (a
    trained classifier separates the shaped stream from its target) or
    ``"xcorr"`` (the observed rate series still tracks the intrinsic
    one).
    """

    cycle: int
    core_id: int
    direction: str
    metric: str
    value: float
    threshold: float


@dataclass(frozen=True)
class MonitorSample:
    """One checkpoint's estimates for one monitored stream."""

    cycle: int
    core_id: int
    direction: str
    events_observed: int
    tvd_target: Optional[float]
    tvd_intrinsic: float
    mi_bits: float
    #: paired releases the MI window actually covered
    mi_pairs: int = 0
    #: True when the window cannot support an MI estimate (fewer than
    #: two pairs, or a marginal collapsed into one bin) — ``mi_bits``
    #: is then a vacuous 0.0, not evidence of no leakage
    mi_degenerate: bool = False
    #: detectability-lab scores (None when detect checks are off or
    #: the window was too small / had no target distribution)
    auc: Optional[float] = None
    xcorr: Optional[float] = None


class _WatchedStream:
    """One (core, direction) pair under observation."""

    __slots__ = (
        "core_id", "direction", "intrinsic", "shaped", "target",
        "pairs_at_check",
    )

    def __init__(
        self,
        core_id: int,
        direction: str,
        intrinsic: "InterArrivalHistogram",
        shaped: "InterArrivalHistogram",
        target: Optional[Tuple[float, ...]],
    ) -> None:
        self.core_id = core_id
        self.direction = direction
        self.intrinsic = intrinsic
        self.shaped = shaped
        self.target = target
        # Paired releases already covered by the last periodic check;
        # finalize() uses it to decide whether an un-checked tail is
        # worth a final partial-window evaluation.
        self.pairs_at_check = 0


class ShapingMonitor:
    """Periodic TVD/MI checkpoints with mid-run violation flagging."""

    def __init__(
        self, interval: int = 2048, tracer=NULL_TRACER, detect: bool = False
    ) -> None:
        if interval <= 0:
            raise ConfigurationError("monitor interval must be positive")
        self.interval = interval
        self.tracer = tracer
        self.detect = detect
        self._next = interval
        self._streams: List[_WatchedStream] = []
        self.history: List[MonitorSample] = []
        self.violations: List[Violation] = []
        # Final partial-window state; REPLACED wholesale by finalize()
        # (never appended), so it is a pure function of histogram state
        # at the last cycle and stays resume/engine-invariant.
        self.final_samples: List[MonitorSample] = []
        self.final_violations: List[Violation] = []
        self._metrics = None

    # -- wiring ------------------------------------------------------------

    def bind_metrics(self, registry) -> None:
        """Mirror monitor state into first-class registry gauges.

        ``monitor.checkpoints`` / ``monitor.violations`` plus
        per-stream ``monitor.core{K}.{dir}.{tvd_target,tvd_intrinsic,
        mi_bits,events}`` update at every checkpoint, so an exported
        exposition shows guarantee breaches without parsing traces.  Checkpoint
        cycles and values are engine-invariant, so binding never
        perturbs the cross-engine equivalence of registry or snapshot
        state.
        """
        self._metrics = registry
        registry.gauge("monitor.checkpoints").set(len(self.history))
        registry.gauge("monitor.violations").set(len(self.violations))

    def watch(
        self,
        core_id: int,
        direction: str,
        intrinsic: "InterArrivalHistogram",
        shaped: "InterArrivalHistogram",
        target_frequencies: Optional[Sequence[float]] = None,
    ) -> None:
        """Observe one stream pair; ``target_frequencies`` (normalized,
        one per bin) enables guarantee checking against the configured
        distribution."""
        target: Optional[Tuple[float, ...]] = None
        if target_frequencies is not None:
            target = tuple(target_frequencies)
            if len(target) != shaped.spec.num_bins:
                raise ConfigurationError(
                    "target distribution has wrong number of bins"
                )
        self._streams.append(
            _WatchedStream(core_id, direction, intrinsic, shaped, target)
        )

    # -- checkpointing -----------------------------------------------------

    def advance(self, cycle: int) -> None:
        """Run any checkpoints reached by the tick at ``cycle``."""
        while cycle >= self._next:
            self._check(self._next)
            self._next += self.interval

    def fill(self, up_to_cycle: int) -> None:
        """Checkpoints inside a skipped span (state is frozen, so the
        current histograms are exact at every boundary)."""
        while self._next <= up_to_cycle:
            self._check(self._next)
            self._next += self.interval

    def _update_stream_gauges(self, sample: MonitorSample) -> None:
        prefix = f"monitor.core{sample.core_id}.{sample.direction}"
        metrics = self._metrics
        if sample.tvd_target is not None:
            metrics.gauge(f"{prefix}.tvd_target").set(sample.tvd_target)
        metrics.gauge(f"{prefix}.tvd_intrinsic").set(sample.tvd_intrinsic)
        metrics.gauge(f"{prefix}.mi_bits").set(sample.mi_bits)
        metrics.gauge(f"{prefix}.events").set(sample.events_observed)
        detect_prefix = f"detect.core{sample.core_id}.{sample.direction}"
        if sample.auc is not None:
            metrics.gauge(f"{detect_prefix}.auc").set(sample.auc)
        if sample.xcorr is not None:
            metrics.gauge(f"{detect_prefix}.xcorr").set(sample.xcorr)

    def _paired(self, stream: _WatchedStream) -> int:
        return min(len(stream.intrinsic.gaps), len(stream.shaped.gaps))

    def _evaluate(
        self, index: int, stream: _WatchedStream, stamp: int
    ) -> Tuple[MonitorSample, List[Violation]]:
        """Build one stream's sample + violations at ``stamp``.

        Pure in (histogram state, stamp); shared by the periodic
        ``_check`` and the run-end ``finalize``.  The zoo's seed is a
        pure function of ``(DETECT_SEED, stamp, stream index)``, so
        checkpoint scores are engine- and resume-invariant.

        The MI window is *degenerate* — ``mi_bits`` is a vacuous 0.0,
        not evidence of no leakage — when fewer than two pairs exist or
        either marginal collapsed into a single bin (a constant
        sequence has zero entropy, so its MI with anything is zero no
        matter how much the streams co-vary at finer granularity).
        """
        from repro.security.mutual_information import interarrival_mi

        shaped = stream.shaped
        spec = shaped.spec
        observed = shaped.total
        tvd_intrinsic = stream.intrinsic.total_variation_distance(shaped)
        intrinsic_gaps = stream.intrinsic.gaps
        shaped_gaps = shaped.gaps
        paired = min(len(intrinsic_gaps), len(shaped_gaps))

        start = max(0, paired - MI_WINDOW)
        x = intrinsic_gaps[start:paired]
        y = shaped_gaps[start:paired]
        mi = interarrival_mi(x, y, spec)
        # Bins are ordered, so a window sits in one bin iff its
        # extremes do.
        mi_degenerate = paired < 2 or any(
            spec.bin_of(min(gaps)) == spec.bin_of(max(gaps))
            for gaps in (x, y)
        )
        tvd_target: Optional[float] = None
        if stream.target is not None:
            tvd_target = 0.5 * sum(
                abs(a - b)
                for a, b in zip(shaped.frequencies(), stream.target)
            )
        auc: Optional[float] = None
        xcorr: Optional[float] = None
        if self.detect and paired >= DETECT_MIN_PAIRS:
            from repro.security.detect import detect_report

            start = max(0, paired - DETECT_WINDOW)
            seed = DeterministicRng(DETECT_SEED).fork(stamp).fork(index)
            zoo = detect_report(
                f"core{stream.core_id}.{stream.direction}",
                intrinsic_gaps[start:paired], shaped_gaps[start:paired],
                spec, stream.target, seed=seed.seed,
            )
            auc, xcorr = zoo.auc, zoo.xcorr
        sample = MonitorSample(
            cycle=stamp,
            core_id=stream.core_id,
            direction=stream.direction,
            events_observed=observed,
            tvd_target=tvd_target,
            tvd_intrinsic=tvd_intrinsic,
            mi_bits=mi,
            mi_pairs=len(x),
            mi_degenerate=mi_degenerate,
            auc=auc,
            xcorr=xcorr,
        )
        # The guarantee is judged only once MIN_EVENTS releases exist.
        judged = tvd_target if observed >= MIN_EVENTS else None
        violations = [
            Violation(
                cycle=stamp,
                core_id=stream.core_id,
                direction=stream.direction,
                metric=metric,
                value=value,
                threshold=threshold,
            )
            for metric, value, threshold in (
                ("tvd_target", judged, TVD_THRESHOLD),
                ("auc", auc, AUC_THRESHOLD),
                ("xcorr", xcorr, XCORR_THRESHOLD),
            )
            if value is not None and value > threshold
        ]
        return sample, violations

    def _check(self, stamp: int) -> None:
        for index, stream in enumerate(self._streams):
            sample, violations = self._evaluate(index, stream, stamp)
            stream.pairs_at_check = self._paired(stream)
            self.history.append(sample)
            if self._metrics is not None:
                self._update_stream_gauges(sample)
            for violation in violations:
                self.violations.append(violation)
                if self._metrics is not None:
                    self._metrics.gauge("monitor.violations").set(
                        len(self.violations)
                    )
                if self.tracer.enabled:
                    self.tracer.emit(
                        stamp, CATEGORY_MONITOR, "monitor.violation",
                        core_id=violation.core_id,
                        direction=violation.direction,
                        metric=violation.metric,
                        value=round(violation.value, 6),
                        threshold=violation.threshold,
                    )
        if self._metrics is not None:
            self._metrics.gauge("monitor.checkpoints").set(len(self.history))

    def finalize(self, cycle: int) -> None:
        """Evaluate the un-checked tail at run end (the final partial
        window the periodic schedule never reaches).

        A stream is finalized only when it accrued at least
        :data:`FINAL_MIN_PAIRS` new paired releases since its last
        periodic check — a smaller tail cannot support the estimators
        and would only add small-sample noise.

        Overwrite semantics: the ``final_*`` lists are REPLACED
        wholesale on every call, making finalize a pure function of
        histogram state at ``cycle``.  An interrupted run finalizes at
        the cut, but resuming and finalizing again at the true end
        converges to exactly the straight run's final state.  For the
        same reason finalize emits no trace events and touches no
        gauges — both are append-only / time-sampled and must stay
        byte-identical across engines and snapshot-resume paths.
        """
        samples: List[MonitorSample] = []
        violations: List[Violation] = []
        for index, stream in enumerate(self._streams):
            new_pairs = self._paired(stream) - stream.pairs_at_check
            if new_pairs < FINAL_MIN_PAIRS:
                continue
            sample, tail = self._evaluate(index, stream, cycle)
            samples.append(sample)
            violations.extend(tail)
        self.final_samples = samples
        self.final_violations = violations

    @property
    def all_violations(self) -> List[Violation]:
        """Every breach of the run: periodic checks, then run-end tail."""
        return self.violations + self.final_violations

    @property
    def violation_count(self) -> int:
        """Total breaches: periodic checks + run-end tail."""
        return len(self.violations) + len(self.final_violations)

    # -- reporting -----------------------------------------------------------

    def latest(
        self, core_id: int, direction: str
    ) -> Optional[MonitorSample]:
        """Freshest view of one stream: the run-end tail sample when it
        is at least as new as the last periodic checkpoint, else that
        checkpoint; None before either exists."""
        return max(
            (
                sample
                for sample in (*self.final_samples, *reversed(self.history))
                if sample.core_id == core_id
                and sample.direction == direction
            ),
            key=lambda sample: sample.cycle,
            default=None,
        )

    def summary_rows(self) -> List[List[object]]:
        """Latest estimate per stream, one table row each.

        Base columns are [core, direction, events, tvd_target,
        tvd_intrinsic, mi]; two detect columns (auc, xcorr) are
        appended only when detect checks are enabled.  A degenerate MI
        window renders as ``insufficient_support`` rather than a clean
        0.0000 — zero evidence is not evidence of zero leakage.
        """
        rows: List[List[object]] = []
        for stream in self._streams:
            sample = self.latest(stream.core_id, stream.direction)
            if sample is None:
                continue
            row: List[object] = [
                sample.core_id,
                sample.direction,
                sample.events_observed,
                "-" if sample.tvd_target is None
                else f"{sample.tvd_target:.4f}",
                f"{sample.tvd_intrinsic:.4f}",
                "insufficient_support" if sample.mi_degenerate
                else f"{sample.mi_bits:.4f}",
            ]
            if self.detect:
                row.append(
                    "-" if sample.auc is None else f"{sample.auc:.4f}"
                )
                row.append(
                    "-" if sample.xcorr is None else f"{sample.xcorr:.4f}"
                )
            rows.append(row)
        return rows
