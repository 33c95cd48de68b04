"""Small numeric helpers shared across subsystems."""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any, Iterable, Sequence


def ceil_div(numerator: int, denominator: int) -> int:
    """Integer division rounding toward positive infinity."""
    if denominator <= 0:
        raise ValueError(f"denominator must be positive, got {denominator}")
    return -(-numerator // denominator)


def clamp(value, low, high):
    """Clamp ``value`` into the inclusive range ``[low, high]``."""
    if low > high:
        raise ValueError(f"empty clamp range [{low}, {high}]")
    return max(low, min(high, value))


def is_power_of_two(value: int) -> bool:
    """True when ``value`` is a positive power of two."""
    return value > 0 and (value & (value - 1)) == 0


def log2_int(value: int) -> int:
    """Exact base-2 logarithm of a power-of-two integer."""
    if not is_power_of_two(value):
        raise ValueError(f"{value} is not a positive power of two")
    return value.bit_length() - 1


def saturating_add(value: int, delta: int, max_value: int) -> int:
    """Add ``delta`` to ``value``, saturating at ``max_value``.

    Models hardware counters of fixed width (e.g. the 10-bit credit
    registers in the Camouflage shaper, paper section III-A3).
    """
    if max_value < 0:
        raise ValueError(f"max_value must be non-negative, got {max_value}")
    return min(max_value, value + delta)


def fold_sum(values: Iterable[float]) -> float:
    """Sum floats strictly left to right, one rounding per addition.

    The builtin ``sum()`` compensates float rounding from Python 3.12
    on, so its last bit depends on the interpreter; this fold gives
    the same bits on every version (3.11's ``sum()``, and numpy's
    pairwise sum below 8 values).
    """
    total = 0.0
    for value in values:
        total += value
    return total


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean of strictly positive values.

    The paper reports geometric-mean speedups (Fig. 12); this helper is
    used by the benchmark harness to reproduce those summary rows.
    """
    values = list(values)
    if not values:
        raise ValueError("geometric mean of an empty sequence is undefined")
    if any(v <= 0 for v in values):
        raise ValueError("geometric mean requires strictly positive values")
    return math.exp(fold_sum(math.log(v) for v in values) / len(values))


def canonical_doc(value: Any) -> Any:
    """Reduce ``value`` to a canonical JSON-typed document.

    The normal form behind every fingerprint in the repo
    (:func:`repro.sim.stats.report_digest` for run *outputs*,
    :func:`repro.parallel.cache.config_digest` for run *inputs*):
    dataclasses become sorted dicts, tuples/sets become lists, numpy
    scalars and arrays collapse to their Python values, and anything
    else must already be a JSON scalar.  Two configurations that would
    drive identical simulations normalise to equal documents.
    """
    import dataclasses

    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: canonical_doc(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        out = {}
        for key, item in value.items():
            if not isinstance(key, str):
                key = str(key)
            out[key] = canonical_doc(item)
        return out
    if isinstance(value, (list, tuple)):
        return [canonical_doc(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(canonical_doc(item) for item in value)
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if hasattr(value, "tolist") and hasattr(value, "dtype"):
        # numpy scalar or array — collapse to Python values (tolist
        # handles both; item() would reject multi-element arrays).
        return canonical_doc(value.tolist())
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            raise ValueError(
                f"non-finite float {value!r} cannot be fingerprinted"
            )
        return value
    raise TypeError(
        f"value of type {type(value).__name__} is not canonicalisable"
    )


def canonical_json_digest(doc: Any, length: int = 16) -> str:
    """SHA-256 over the canonical JSON encoding of ``doc``.

    ``doc`` is passed through :func:`canonical_doc` first, then dumped
    with sorted keys and no whitespace so the digest is independent of
    dict insertion order and container flavour (tuple vs list).
    """
    blob = json.dumps(
        canonical_doc(doc), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:length]


def cumulative_sum(values: Sequence[float]) -> list:
    """Running prefix sums of ``values`` (same length as the input)."""
    total = 0.0
    out = []
    for v in values:
        total += v
        out.append(total)
    return out
