"""Persistent dispatch ledger: what happened to every shard, on disk.

The coordinator rewrites one JSON document on every shard state
transition using the REPROSNAP atomic-write primitive
(:func:`repro.resilience.snapshot.atomic_write_bytes`), so a crashed
or SIGKILLed coordinator always leaves a *complete, parseable* ledger
behind — never a truncated one.  The ledger is the audit trail and
the resume story's witness: re-running an interrupted sweep serves
completed shards from the content-addressed cache (the digests are in
here), and ``repro dispatch status`` renders this file.

Shard states form a small machine::

    queued ──> leased ──> completed
                 │  ^
                 v  │ (re-dispatch, attempts += 1)
              requeued
                 │
                 v
       local (degraded drain)      failed (budget exhausted)

plus ``cached`` for shards the executor satisfied from the result
cache without dispatching at all.

The ledger deliberately stores *digests*, not result values — results
live in the cache, addressed by the same digest, so the ledger stays
small and the two artefacts cross-check each other.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.common.errors import ConfigurationError
from repro.resilience.snapshot import atomic_write_bytes

#: Bumped when the ledger document layout changes; a loader seeing an
#: unknown schema refuses rather than misreads.
LEDGER_SCHEMA = 1

#: Shard states the ledger may record.
SHARD_STATES = (
    "queued",
    "leased",
    "requeued",
    "completed",
    "cached",
    "local",
    "failed",
)


class DispatchLedger:
    """One sweep's dispatch ledger, persisted atomically on mutation.

    ``path=None`` gives an in-memory ledger (tests, callers that only
    want the status document) — same API, no I/O.
    """

    def __init__(self, path: Optional[str] = None) -> None:
        self._path = Path(path) if path else None
        # Coordinator host threads record transitions concurrently; the
        # lock makes each mutate-and-flush atomic so a racing flush can
        # never rename a stale snapshot over a fuller one.
        self._lock = threading.Lock()
        self.doc: Dict[str, Any] = {
            "ledger_schema": LEDGER_SCHEMA,
            "kind": "",
            "hosts": [],
            "degraded": False,
            "shards": {},
        }

    # -- mutation ----------------------------------------------------

    def begin(self, kind: str, hosts: List[str], shard_count: int) -> None:
        """Start (or restart) a sweep: reset the document and persist."""
        with self._lock:
            self.doc["kind"] = kind
            self.doc["hosts"] = list(hosts)
            self.doc["degraded"] = False
            self.doc["shards"] = {}
            self.doc["shard_count"] = shard_count
            self._flush()

    def record(
        self,
        shard: int,
        state: str,
        label: str = "",
        host: str = "",
        attempts: int = 0,
        digest: str = "",
        detail: str = "",
    ) -> None:
        """Record a shard transition and persist the whole document."""
        if state not in SHARD_STATES:
            raise ConfigurationError(
                f"unknown ledger shard state {state!r} "
                f"(expected one of {SHARD_STATES})"
            )
        with self._lock:
            entry: Dict[str, Any] = dict(
                self.doc["shards"].get(str(shard), {})
            )
            entry["state"] = state
            if label:
                entry["label"] = label
            if host:
                entry["host"] = host
            if attempts:
                entry["attempts"] = attempts
            if digest:
                entry["digest"] = digest
            if detail:
                entry["detail"] = detail
            elif state != "failed":
                entry.pop("detail", None)
            self.doc["shards"][str(shard)] = entry
            self._flush()

    def set_degraded(self, degraded: bool = True) -> None:
        with self._lock:
            self.doc["degraded"] = bool(degraded)
            self._flush()

    # -- queries -----------------------------------------------------

    def states(self) -> Dict[int, str]:
        """Shard index -> current state."""
        with self._lock:
            return {
                int(index): entry.get("state", "")
                for index, entry in self.doc["shards"].items()
            }

    def counts(self) -> Dict[str, int]:
        """State -> number of shards currently in it (zero-filled)."""
        counts = {state: 0 for state in SHARD_STATES}
        with self._lock:
            for entry in self.doc["shards"].values():
                state = entry.get("state", "")
                if state in counts:
                    counts[state] += 1
        return counts

    # -- persistence -------------------------------------------------

    def _flush(self) -> None:
        if self._path is None:
            return
        payload = json.dumps(
            self.doc, sort_keys=True, indent=2
        ).encode("utf-8") + b"\n"
        atomic_write_bytes(str(self._path), payload)

    @classmethod
    def load(cls, path: str) -> "DispatchLedger":
        """Read a persisted ledger back (for ``repro dispatch status``).

        A file that is missing, unreadable, not UTF-8 JSON or not
        shaped like a ledger raises :class:`ConfigurationError`.
        """
        ledger = cls(None)
        try:
            doc = json.loads(Path(path).read_bytes().decode("utf-8"))
        except OSError as exc:
            raise ConfigurationError(
                f"cannot read ledger {path}: {exc}"
            ) from exc
        except (ValueError, RecursionError) as exc:
            raise ConfigurationError(
                f"ledger {path} is not UTF-8 JSON: {exc}"
            ) from exc
        if not isinstance(doc, dict) or "ledger_schema" not in doc:
            raise ConfigurationError(f"{path} is not a dispatch ledger")
        if doc["ledger_schema"] != LEDGER_SCHEMA:
            raise ConfigurationError(
                f"ledger schema {doc['ledger_schema']!r} != {LEDGER_SCHEMA} "
                f"(written by a different release?)"
            )
        doc.setdefault("shards", {})
        doc.setdefault("hosts", [])
        doc.setdefault("degraded", False)
        doc.setdefault("kind", "")
        shards, hosts = doc["shards"], doc["hosts"]
        if not (
            isinstance(shards, dict)
            and all(
                index.isdecimal() and isinstance(entry, dict)
                and isinstance(entry.get("state", ""), str)
                for index, entry in shards.items()
            )
            and isinstance(hosts, list)
            and all(isinstance(host, str) for host in hosts)
            and isinstance(doc["kind"], str)
        ):
            raise ConfigurationError(
                f"{path} is not a dispatch ledger: malformed kind, hosts "
                "or shards"
            )
        ledger.doc = doc
        ledger._path = Path(path)
        return ledger
