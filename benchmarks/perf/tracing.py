"""Spans, self-time arithmetic and profile aggregation.

Everything here observes :mod:`repro` from outside: spans are recorded
by wrapping public functions from the benchmark's own files, and the
profile pass reads ``cProfile`` rows by source path.  Nothing in this
module imports :mod:`repro`, so the arithmetic is testable without the
simulator.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

#: The repo's packages, one layer each; ``python`` is every frame
#: outside ``src/repro`` (builtins, stdlib, numpy).
LAYERS = (
    "workloads", "cpu", "cache", "core", "noc", "memctrl", "dram", "sim",
    "security", "ga", "analysis", "parallel", "obs", "resilience", "common",
    "cli", "python",
)

_PACKAGE_MARKER = "/src/repro/"


def summarize(values: Iterable[float]) -> Dict[str, float]:
    """Median with the min, max and sample count printed beside it."""
    values = list(values)
    if not values:
        raise ValueError("cannot summarize an empty sample")
    return {
        "value": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "n": len(values),
    }


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------


class SpanRecorder:
    """In-memory spans (name, start, end, parent) around wrapped calls.

    A span's *layer* is the part of its name before the first dot
    (``sim.run`` belongs to ``sim``).  A call that re-enters a span of
    its own name (``canonical_doc`` recursing, ``report_digest``
    calling ``canonical_doc``) is not recorded again.
    """

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._open: List[Dict[str, Any]] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Dict[str, Any]]:
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1]["id"] if self._open else None,
            "start_ns": time.perf_counter_ns(),
            "end_ns": None,
        }
        self.spans.append(record)
        self._open.append(record)
        try:
            yield record
        finally:
            record["end_ns"] = time.perf_counter_ns()
            self._open.pop()

    def _wrapper(self, fn: Callable, name: str,
                 note: Optional[Callable] = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._open and self._open[-1]["name"] == name:
                return fn(*args, **kwargs)
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if note is not None:
                note(record, args, kwargs, result)
            return result

        return traced

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        """Set ``owner.attr`` until :meth:`restore`."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap_attr(self, owner: Any, attr: str, name: str,
                  note: Optional[Callable] = None) -> None:
        """Trace ``owner.attr`` (a method on its class)."""
        self.patch(owner, attr, self._wrapper(getattr(owner, attr), name, note))

    def wrap_function(self, fn: Callable, name: str,
                      note: Optional[Callable] = None) -> None:
        """Trace a module-level function wherever ``repro`` bound it.

        ``from x import f`` copies the binding into the importing
        module, so patching only the defining module would miss those
        callers; every loaded ``repro`` module that holds ``fn`` itself
        is patched.
        """
        traced = self._wrapper(fn, name, note)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == "repro" or module_name.startswith("repro.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.patch(module, attr, traced)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def self_times(spans: List[Dict[str, Any]]) -> Dict[int, int]:
    """Each span's duration minus the part its child spans cover (ns).

    Children of one parent never overlap (calls on one thread nest),
    so the covered part is the sum of the children's durations and the
    self times of a tree sum to its root's duration exactly.
    """
    own = {s["id"]: s["end_ns"] - s["start_ns"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end_ns"] - s["start_ns"]
    return own


def rollup_spans(spans: List[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, total seconds and self seconds."""
    own = self_times(spans)
    out: Dict[str, Dict[str, float]] = {}
    for s in spans:
        row = out.setdefault(
            s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        row["calls"] += 1
        row["total_s"] += (s["end_ns"] - s["start_ns"]) / 1e9
        row["self_s"] += own[s["id"]] / 1e9
    return out


# ---------------------------------------------------------------------------
# profile pass
# ---------------------------------------------------------------------------


def layer_of_path(filename: str) -> str:
    """The layer a ``cProfile`` row's source file belongs to.

    ``.../src/repro/<package>/...`` is ``<package>``;
    ``.../src/repro/cli.py`` is ``cli``; anything else — builtins
    (``~``), the standard library, numpy, the benchmark's own wrappers
    — is ``python``.
    """
    path = filename.replace("\\", "/")
    at = path.rfind(_PACKAGE_MARKER)
    if at < 0:
        return "python"
    head = path[at + len(_PACKAGE_MARKER):].split("/", 1)[0]
    if head.endswith(".py"):
        head = head[:-3]
    return head if head in LAYERS else "python"


def profile_by_layer(profile) -> Dict[str, Dict[str, float]]:
    """Sum ``tottime`` and ``ncalls`` of a ``cProfile.Profile`` by layer."""
    out: Dict[str, Dict[str, float]] = {}
    for entry in profile.getstats():
        code = entry.code
        filename = code if isinstance(code, str) else code.co_filename
        row = out.setdefault(
            layer_of_path(filename), {"self_s": 0.0, "calls": 0}
        )
        row["self_s"] += entry.inlinetime
        row["calls"] += entry.callcount
    return out
