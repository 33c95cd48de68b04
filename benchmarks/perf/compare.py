"""``run.py compare A.json B.json``: is B no worse than A?

A is the base of every delta.  One row per workload and end-to-end
metric; a combined score is never printed.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from metrics import END_TO_END, PER_LAYER, Metric


def verdict(metric: Metric, a: Dict[str, float], b: Dict[str, float]) -> str:
    """``ok``, ``regressed`` or ``unresolved`` for one metric.

    ``a`` and ``b`` are summaries (value = median, min, max).  When
    either side's run-to-run spread exceeds the bound the medians
    cannot settle the question; it is ``unresolved`` unless every run
    of one side reads better than every run of the other.
    """
    lower = metric.better == "lower"
    worse_by = (b["value"] - a["value"]) / a["value"] * (1 if lower else -1)
    spread = max((s["max"] - s["min"]) / s["value"] for s in (a, b))
    if spread > metric.bound:
        disjoint = b["max"] < a["min"] or b["min"] > a["max"]
        if not disjoint:
            return "unresolved"
    return "regressed" if worse_by > metric.bound else "ok"


def compare(doc_a: Dict[str, Any], doc_b: Dict[str, Any]
            ) -> Tuple[List[str], bool]:
    """Report lines, and whether B regressed against A."""
    lines: List[str] = []
    regressed = False
    exact = [m.name for m in PER_LAYER if m.exact]
    for name, a in doc_a["workloads"].items():
        b = doc_b["workloads"].get(name)
        if b is None:
            lines.append(f"{name}: missing from B")
            continue
        lines.append(f"{name}:")
        for metric in END_TO_END:
            ma, mb = a["end_to_end"].get(metric.name), b["end_to_end"].get(metric.name)
            if ma is None or mb is None:
                lines.append(f"  {metric.name:<18} missing")
                regressed = True
                continue
            result = verdict(metric, ma, mb)
            regressed |= result == "regressed"
            delta = (mb["value"] - ma["value"]) / ma["value"]
            lines.append(
                f"  {metric.name:<18} A {ma['value']:.6g} -> B {mb['value']:.6g} "
                f"{metric.unit:<4} {delta:+.1%} of A  "
                f"(bound {metric.bound:.0%}, {metric.better} is better)  {result}"
            )
        share_a, share_b = a["failed_share"], b["failed_share"]
        failed_more = share_b > share_a
        regressed |= failed_more
        lines.append(
            f"  {'failed_share':<18} A {share_a:.4g} -> B {share_b:.4g}  "
            f"{'regressed' if failed_more else 'ok'}"
        )
        same = a["sim_fingerprint"] == b["sim_fingerprint"]
        lines.append(
            f"  sim_fingerprint    {'identical' if same else 'changed'}"
        )
        layers_a, layers_b = a.get("per_layer", {}), b.get("per_layer", {})
        for key in exact:
            if key in layers_a and key in layers_b and (
                layers_a[key]["value"] != layers_b[key]["value"]
            ):
                lines.append(
                    f"  count {key}: A {layers_a[key]['value']} -> "
                    f"B {layers_b[key]['value']}"
                )
    return lines, regressed
