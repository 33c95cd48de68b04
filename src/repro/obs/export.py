"""Registry exporters: OpenMetrics text exposition and shard merge.

Two things live here, all pure functions of a
:class:`~repro.obs.metrics.MetricsRegistry`:

* :func:`render_openmetrics` — the Prometheus/OpenMetrics text
  exposition of a registry.  Families are sorted by name, labels are
  rendered in sorted key order, histogram buckets are cumulative with
  a ``+Inf`` terminator, counters are suffixed ``_total``.  The output
  is **byte-deterministic** for a given registry state: two registries
  holding the same instruments with the same values render to the same
  bytes, which is what lets the jobs=1 and jobs=N merged sweep
  registries be compared with ``cmp`` (docs/parallel.md).
* :func:`serialize_registry` / :func:`merge_into` /
  :func:`merge_serialized` — the shard-merge protocol of
  :mod:`repro.parallel`: each sweep worker serializes its registry
  into its (JSON-typed) result payload; the executor folds the shard
  documents into one cluster-level registry in submission order.
  Counters and histogram buckets add; gauges take the last write, so
  the merged registry — and therefore its exposition — is identical
  for every ``jobs`` value.

Registered names may contain ``.`` (the repo's namespacing separator,
e.g. ``memctrl.queue_depth``); the renderer escapes it to ``_``.
Names the exposition could never carry at all (``-``, leading digits)
are rejected earlier, at registration, by
:func:`repro.obs.metrics.validate_metric_name`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional

from repro.common.errors import ConfigurationError, MetricNameError
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    validate_metric_name,
)

__all__ = [
    "escape_family_name",
    "render_openmetrics",
    "serialize_registry",
    "merge_into",
    "merge_serialized",
    "validate_metric_name",
]

def escape_family_name(name: str) -> str:
    """The exposition family name for a registered metric name."""
    return name.replace(".", "_")


def _format_value(value) -> str:
    """Deterministic sample-value rendering: ints as ints, floats via
    ``repr`` (shortest round-trip form, stable across CPython 3.x)."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _render_labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{_escape_label_value(str(labels[key]))}"'
        for key in sorted(labels)
    )
    return "{" + inner + "}"


def _with_le(labels: Mapping[str, str], le: str) -> str:
    merged = dict(labels)
    merged["le"] = le
    return _render_labels(merged)


def render_openmetrics(
    registry: MetricsRegistry,
    labels: Optional[Mapping[str, str]] = None,
) -> str:
    """The text exposition of ``registry``, byte-deterministic.

    ``labels`` (optional) are attached to every sample, rendered in
    sorted key order.  Counter families are suffixed ``_total``;
    histograms expose cumulative ``_bucket{le=...}`` samples plus
    ``_sum``/``_count``.  Ends with the OpenMetrics ``# EOF`` marker.
    """
    labels = dict(labels or {})
    for key in labels:
        validate_metric_name(key)
    families: Dict[str, object] = {}
    for name in registry.names():
        family = escape_family_name(name)
        if family in families:
            raise MetricNameError(
                f"metric names {name!r} and another registered name "
                f"collide on exposition family {family!r}",
                name=name,
            )
        families[family] = (name, registry._instruments[name])

    lines: List[str] = []
    for family in sorted(families):
        name, instrument = families[family]
        if isinstance(instrument, Counter):
            lines.append(f"# HELP {family} Counter {name!r} from the "
                         "repro metrics registry.")
            lines.append(f"# TYPE {family} counter")
            lines.append(
                f"{family}_total{_render_labels(labels)} "
                f"{_format_value(instrument.value)}"
            )
        elif isinstance(instrument, Gauge):
            lines.append(f"# HELP {family} Gauge {name!r} from the "
                         "repro metrics registry.")
            lines.append(f"# TYPE {family} gauge")
            lines.append(
                f"{family}{_render_labels(labels)} "
                f"{_format_value(instrument.value)}"
            )
        elif isinstance(instrument, Histogram):
            lines.append(f"# HELP {family} Histogram {name!r} from the "
                         "repro metrics registry.")
            lines.append(f"# TYPE {family} histogram")
            cumulative = 0
            for edge, count in zip(instrument.edges, instrument.counts):
                cumulative += count
                lines.append(
                    f"{family}_bucket{_with_le(labels, str(edge))} "
                    f"{cumulative}"
                )
            lines.append(
                f"{family}_bucket{_with_le(labels, '+Inf')} "
                f"{instrument.total}"
            )
            lines.append(
                f"{family}_sum{_render_labels(labels)} "
                f"{_format_value(instrument.sum)}"
            )
            lines.append(
                f"{family}_count{_render_labels(labels)} "
                f"{instrument.total}"
            )
        else:  # pragma: no cover - registry only holds the three kinds
            raise ConfigurationError(
                f"cannot render instrument kind {type(instrument).__name__}"
            )
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


# -- shard serialization / merge (repro.parallel) ---------------------------

#: Schema tag of the serialized-registry documents sweep workers embed
#: in their result payloads.  Bump on layout changes so a stale cached
#: result is recognisable.
REGISTRY_DOC_VERSION = 1


def serialize_registry(registry: MetricsRegistry) -> Dict[str, object]:
    """A plain JSON document holding the registry's full state.

    Round-trips through :func:`merge_into` losslessly; embedding it in
    a sweep task's result keeps the result JSON-typed, so the parallel
    result cache stores and replays it byte-identically.
    """
    doc: Dict[str, object] = {
        "version": REGISTRY_DOC_VERSION,
        "counters": {},
        "gauges": {},
        "histograms": {},
    }
    for name in registry.names():
        instrument = registry._instruments[name]
        if isinstance(instrument, Counter):
            doc["counters"][name] = instrument.value
        elif isinstance(instrument, Gauge):
            doc["gauges"][name] = instrument.value
        elif isinstance(instrument, Histogram):
            doc["histograms"][name] = {
                "edges": list(instrument.edges),
                "counts": list(instrument.counts),
                "total": instrument.total,
                "sum": instrument.sum,
            }
    return doc


def merge_into(
    registry: MetricsRegistry, doc: Mapping[str, object]
) -> MetricsRegistry:
    """Fold one serialized registry document into ``registry``.

    Counters and histogram buckets **add**; gauges take the document's
    value (last write wins).  Because the executor applies shard
    documents in submission order, the merged registry is a pure
    function of the task list — independent of ``jobs`` — and its
    exposition is byte-identical across worker counts.
    """
    version = doc.get("version")
    if version != REGISTRY_DOC_VERSION:
        raise ConfigurationError(
            f"unsupported registry document version {version!r} "
            f"(expected {REGISTRY_DOC_VERSION})"
        )
    for name in sorted(doc.get("counters", {})):
        registry.counter(name).inc(int(doc["counters"][name]))
    for name in sorted(doc.get("gauges", {})):
        registry.gauge(name).set(doc["gauges"][name])
    for name in sorted(doc.get("histograms", {})):
        entry = doc["histograms"][name]
        histogram = registry.histogram(name, tuple(entry["edges"]))
        if list(histogram.edges) != list(entry["edges"]):
            raise ConfigurationError(
                f"histogram {name!r}: shard edges {entry['edges']} do "
                f"not match merged edges {list(histogram.edges)}"
            )
        histogram.accumulate(
            [int(c) for c in entry["counts"]],
            int(entry["total"]),
            int(entry["sum"]),
        )
    return registry


def merge_serialized(
    docs: Iterable[Mapping[str, object]],
) -> MetricsRegistry:
    """A fresh registry holding the fold of ``docs`` in order."""
    registry = MetricsRegistry()
    for doc in docs:
        merge_into(registry, doc)
    return registry
