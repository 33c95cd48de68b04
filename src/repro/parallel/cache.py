"""Content-addressed result cache for simulation points.

A sweep point is a pure function of its inputs: benchmark, shaping
plan, bin spec, engine, seed, run length, and the code that interprets
them.  :func:`config_digest` extends the canonical-JSON fingerprinting
of :func:`repro.sim.stats.report_digest` from run *outputs* to run
*inputs* — the digest of that input document addresses the point's
result on disk, so re-running a sweep whose inputs did not change
performs zero simulations.

Key anatomy (see docs/parallel.md for the invalidation rules)::

    {
      "kind":         "tradeoff-point",        # task family
      "task":         {...},                   # the full task payload
      "code_version": "1.0.0",                 # repro.__version__
      "cache_schema": 1,                       # entry layout version
    }

``code_version`` and ``cache_schema`` are folded into every digest, so
a release that changes simulator behaviour or the entry layout
invalidates the whole cache rather than serving stale results.

Entries are JSON files named ``<digest>.json`` in two-level fan-out
directories (``ab/abcdef....json``), written atomically with the
REPROSNAP helper (:func:`repro.resilience.snapshot.atomic_write_bytes`)
— a crashed or concurrent writer never leaves a truncated entry, and
two processes racing on the same key converge on identical bytes.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional

import repro
from repro.common.errors import ConfigurationError
from repro.common.util import canonical_doc, canonical_json_digest
from repro.resilience.snapshot import atomic_write_bytes

#: Bump when the entry layout changes; folded into every key digest.
#: 2: tradeoff/mix/GA task results grew detectability-lab fields
#: (auc / xcorr / spectral) — stale schema-1 entries must not satisfy
#: sweeps that expect the new columns.
#: 3: the detect suite's and mix-slowdown's ``mi`` is the run-length
#: windowed MI Fig 2 reports, no longer the quantized-clock one.
#: 4: tradeoff-point results carry ``segments`` and ``report_digest``.
#: 5: tradeoff-point payloads and results carry no label (one entry per
#: credit configuration) and no ``report_digest``.
CACHE_SCHEMA = 5

#: Hex digits of the key digest (64 = full SHA-256).
DIGEST_LENGTH = 40


def cache_key(kind: str, task_doc: Any) -> Dict[str, Any]:
    """The canonical key document for one task.

    ``task_doc`` is the task's full payload (everything the worker
    function reads); ``kind`` names the task family so two families
    with coincidentally equal payloads cannot collide.
    """
    return {
        "kind": kind,
        "task": canonical_doc(task_doc),
        "code_version": repro.__version__,
        "cache_schema": CACHE_SCHEMA,
    }


def config_digest(kind: str, task_doc: Any) -> str:
    """Content address of one task's inputs (hex, 40 chars)."""
    return canonical_json_digest(cache_key(kind, task_doc), DIGEST_LENGTH)


@dataclass(frozen=True)
class CacheEntry:
    """One cached result, as listed by :meth:`ResultCache.entries`."""

    digest: str
    kind: str
    path: str
    size_bytes: int
    created: float


def _read_entry(path: str) -> Optional[Dict[str, Any]]:
    """The JSON object stored at ``path``; None when the file is
    missing, unreadable, not UTF-8 JSON, or not an object."""
    try:
        with open(path, "rb") as fh:
            entry = json.loads(fh.read().decode("utf-8"))
    except (OSError, ValueError, RecursionError):
        return None
    return entry if isinstance(entry, dict) else None


class ResultCache:
    """Digest-keyed store of JSON task results under one directory."""

    def __init__(self, directory: str) -> None:
        if not directory:
            raise ConfigurationError("cache directory must be non-empty")
        self.directory = directory
        self.hits = 0
        self.misses = 0

    # -- addressing --------------------------------------------------------

    def path_for(self, digest: str) -> str:
        return os.path.join(self.directory, digest[:2], digest + ".json")

    # -- read/write --------------------------------------------------------

    def get(self, digest: str) -> Optional[Any]:
        """The cached result for ``digest``, or None on miss.

        A corrupt entry (any bytes that are not a JSON object, wrong
        schema) counts as a miss and is removed so the slot heals on
        the next put.
        """
        path = self.path_for(digest)
        entry = _read_entry(path)
        if (
            entry is None
            or entry.get("cache_schema") != CACHE_SCHEMA
            or "result" not in entry
        ):
            self.misses += 1
            self._remove_quietly(path)
            return None
        self.hits += 1
        return entry["result"]

    def put(self, digest: str, key: Dict[str, Any], result: Any) -> str:
        """Store ``result`` under ``digest``; returns the entry path.

        ``result`` must canonicalise to JSON (numpy scalars/arrays are
        collapsed); the full ``key`` document is stored alongside it so
        ``repro cache ls`` can say what an entry *is* without a reverse
        index.
        """
        entry = {
            "cache_schema": CACHE_SCHEMA,
            "digest": digest,
            "key": canonical_doc(key),
            "result": canonical_doc(result),
            # Prune metadata only — never part of the digest or the
            # result, so wall clock cannot influence any run output.
            "created_unix": time.time(),
        }
        payload = json.dumps(entry, sort_keys=True).encode("utf-8")
        path = self.path_for(digest)
        atomic_write_bytes(path, payload)
        return path

    # -- management (the `repro cache` CLI verbs) -------------------------

    def _entry_paths(self) -> Iterator[str]:
        if not os.path.isdir(self.directory):
            return
        for shard in sorted(os.listdir(self.directory)):
            shard_dir = os.path.join(self.directory, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                if name.endswith(".json"):
                    yield os.path.join(shard_dir, name)

    def entries(self) -> List[CacheEntry]:
        """All readable entries, sorted oldest-first by creation time."""
        out: List[CacheEntry] = []
        for path in self._entry_paths():
            entry = _read_entry(path)
            if entry is None:
                continue
            key = entry.get("key")
            created = entry.get("created_unix", 0.0)
            if not isinstance(created, (int, float)):
                continue
            try:
                size = os.path.getsize(path)
            except OSError:
                continue
            out.append(
                CacheEntry(
                    digest=str(
                        entry.get("digest", os.path.basename(path)[:-5])
                    ),
                    kind=str(
                        key.get("kind", "?") if isinstance(key, dict) else "?"
                    ),
                    path=path,
                    size_bytes=size,
                    created=float(created),
                )
            )
        out.sort(key=lambda e: (e.created, e.digest))
        return out

    def prune(
        self,
        keep: Optional[int] = None,
        older_than_days: Optional[float] = None,
    ) -> int:
        """Remove old entries; returns how many files were deleted.

        ``keep`` retains only the newest N entries;
        ``older_than_days`` removes entries created before the cutoff.
        Both filters compose (an entry is removed if either says so).
        """
        if keep is None and older_than_days is None:
            raise ConfigurationError(
                "prune needs --keep and/or --older-than-days"
            )
        if keep is not None and keep < 0:
            raise ConfigurationError("keep must be >= 0")
        listed = self.entries()
        doomed = set()
        if keep is not None and len(listed) > keep:
            doomed.update(e.path for e in listed[: len(listed) - keep])
        if older_than_days is not None:
            cutoff = time.time() - older_than_days * 86400.0
            doomed.update(e.path for e in listed if e.created < cutoff)
        for path in doomed:
            self._remove_quietly(path)
        return len(doomed)

    def clear(self) -> int:
        """Remove every entry; returns how many files were deleted."""
        removed = 0
        for path in list(self._entry_paths()):
            self._remove_quietly(path)
            removed += 1
        return removed

    @staticmethod
    def _remove_quietly(path: str) -> None:
        try:
            os.remove(path)
        except OSError:
            # Entry removal races (another process pruning the same
            # directory) are benign: the goal state is "gone".
            pass
