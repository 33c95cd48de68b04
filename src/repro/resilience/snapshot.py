"""Versioned, deterministic snapshots of simulator state.

A snapshot is a single file with a small self-describing envelope:

``line 1``
    Magic + format version: ``REPROSNAP v10``.
``line 2``
    A JSON metadata object (``kind``, ``cycle``, ``txn_watermark``,
    ...) readable without unpickling anything — ``repro resume`` shows
    it, and version checks happen here.
``rest``
    A :mod:`pickle` payload of the object graph.

Why whole-graph pickle rather than a hand-rolled per-component codec:
the wired :class:`~repro.sim.system.System` is a web of *shared*
references (cores hold their request paths, response shapers hold the
scheduler, the monitor holds the shapers' histograms).  Pickle's memo
preserves that sharing exactly, so a restored system is isomorphic to
the saved one — the property the bit-identical resume guarantee rests
on.  The components were made pickle-clean for this (module-level
probe classes instead of builder closures, ``NULL_TRACER`` reducing to
its singleton).

One piece of state lives *outside* the object graph: the process-global
transaction-id counter (:func:`repro.memctrl.transaction.txn_id_watermark`).
Its watermark is stored in the metadata and re-applied on restore so a
resume in a fresh process mints exactly the ids the uninterrupted run
would have.

Snapshots are an internal persistence format, not an interchange
format: like any pickle they must only be loaded from trusted sources
(your own checkpoint directory).
"""

from __future__ import annotations

import io
import json
import os
import pickle
from typing import Any, Dict, Optional, Tuple

from repro.common.errors import SnapshotError
from repro.memctrl.transaction import (
    advance_txn_id_watermark,
    txn_id_watermark,
)

#: First envelope line; the version suffix bumps on any layout change
#: — including a class the pickled graph names going away, so that an
#: old file fails here and not inside ``pickle.loads``.  v2: one shaper
#: station class per direction (the passthrough and epoch-rate path
#: classes v1 graphs pickle no longer exist).  v3: the memory
#: controller keeps committed return slots and a fenced-core set, the
#: priority scheduler a boosted-core count and the DRAM system its
#: earliest refresh deadline (a v2 graph has none of them).  v4: the
#: controller, bank and address-mapping layouts lose the write queue,
#: the page policy and the rank mask.  v5: the observability ring
#: class and the monitor's two violation classes go (the tracer keeps
#: a ``deque``, the sampler a list, the monitor one ``Violation``).
#: v6: a queued transaction keeps its resolved ``BankTarget``, the
#: controller its earliest burst deadline and an address mapping its
#: precomputed field spans.  v7: a decoded address is a named tuple,
#: the DRAM system drops its ready-cycle memo, banks their state enum
#: and timing, and a rank's ACT gate holds tFAW as well as tRRD.  v8: a
#: memory trace is three packed columns, not a list of ``TraceRecord``s.
#: v9: the observability hub loses its live-endpoint flag, the fault
#: injector its saturation specs and counter, and the 2D-mesh NoC and
#: queue-saturation fault classes are gone.  v10: the observability
#: config loses its trace-category field, the event tracer its
#: category filter and the fault injector its epoch-stress state, and
#: the epoch-boundary-stress fault class is gone.
SNAPSHOT_MAGIC = b"REPROSNAP"
SNAPSHOT_VERSION = 10

#: ``kind`` values the library writes.
KIND_SYSTEM = "system"
KIND_TUNER = "tuner"


def atomic_write_bytes(path: str, payload: bytes) -> None:
    """Write ``payload`` to ``path`` via a same-directory temp + rename.

    The REPROSNAP durability primitive, shared by snapshot files and
    the parallel result cache (:mod:`repro.parallel.cache`): a crash or
    a concurrent writer mid-write never leaves a truncated file under
    the final name, because :func:`os.replace` is atomic on POSIX and
    Windows.  Parent directories are created on demand.
    """
    tmp_path = path + ".tmp"
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(tmp_path, "wb") as fh:
        fh.write(payload)
    os.replace(tmp_path, path)


def dump_snapshot(
    obj: Any,
    kind: str,
    cycle: int,
    extra_meta: Optional[Dict[str, Any]] = None,
) -> bytes:
    """Serialise ``obj`` into the envelope format, returning the bytes."""
    meta: Dict[str, Any] = {
        "kind": kind,
        "cycle": int(cycle),
        "txn_watermark": txn_id_watermark(),
    }
    if extra_meta:
        meta.update(extra_meta)
    buffer = io.BytesIO()
    buffer.write(SNAPSHOT_MAGIC + b" v%d\n" % SNAPSHOT_VERSION)
    buffer.write(json.dumps(meta, sort_keys=True).encode("utf-8") + b"\n")
    try:
        pickle.dump(obj, buffer, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise SnapshotError(
            f"object of kind {kind!r} is not snapshot-serialisable: {exc}"
        ) from exc
    return buffer.getvalue()


def save_snapshot(
    path: str,
    obj: Any,
    kind: str,
    cycle: int,
    extra_meta: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Write a snapshot file atomically; returns its metadata.

    The payload lands in ``path + ".tmp"`` first and is renamed into
    place, so a crash mid-write never leaves a truncated snapshot under
    the final name.
    """
    payload = dump_snapshot(obj, kind, cycle, extra_meta)
    try:
        atomic_write_bytes(path, payload)
    except OSError as exc:
        raise SnapshotError(f"cannot write snapshot {path!r}: {exc}") from exc
    return parse_snapshot(payload)[0]


def parse_snapshot(payload: bytes) -> Tuple[Dict[str, Any], bytes]:
    """Validate the envelope; returns ``(meta, pickle_bytes)``."""
    header, _, rest = payload.partition(b"\n")
    if not header.startswith(SNAPSHOT_MAGIC + b" "):
        raise SnapshotError(
            "not a repro snapshot (bad magic bytes); expected a file "
            "written by repro.resilience.snapshot"
        )
    version_token = header[len(SNAPSHOT_MAGIC) + 1:]
    if not version_token.startswith(b"v"):
        raise SnapshotError(f"malformed snapshot version field {version_token!r}")
    try:
        version = int(version_token[1:])
    except ValueError:
        raise SnapshotError(
            f"malformed snapshot version field {version_token!r}"
        ) from None
    if version != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"snapshot format v{version} is not supported by this build "
            f"(expected v{SNAPSHOT_VERSION})"
        )
    meta_line, _, pickled = rest.partition(b"\n")
    try:
        meta = json.loads(meta_line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SnapshotError(f"corrupt snapshot metadata: {exc}") from exc
    if not isinstance(meta, dict) or "kind" not in meta:
        raise SnapshotError("snapshot metadata must be an object with a 'kind'")
    if not pickled:
        raise SnapshotError("truncated snapshot: payload missing")
    return meta, pickled


def read_snapshot_info(path: str) -> Dict[str, Any]:
    """The metadata of a snapshot file, without unpickling the payload."""
    try:
        with open(path, "rb") as fh:
            head = fh.read(65536)
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot {path!r}: {exc}") from exc
    # Only the two header lines are needed; 64 KiB comfortably bounds
    # them while skipping the (potentially large) payload.
    header, _, rest = head.partition(b"\n")
    meta_line = rest.partition(b"\n")[0]
    return parse_snapshot(header + b"\n" + meta_line + b"\nx")[0]


def load_snapshot(
    path: str, expect_kind: Optional[str] = None
) -> Tuple[Any, Dict[str, Any]]:
    """Read and restore a snapshot file; returns ``(obj, meta)``.

    Re-applies the transaction-id watermark before unpickling, so any
    ids minted while the restored system runs continue the saved run's
    sequence.
    """
    try:
        with open(path, "rb") as fh:
            payload = fh.read()
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot {path!r}: {exc}") from exc
    meta, pickled = parse_snapshot(payload)
    if expect_kind is not None and meta.get("kind") != expect_kind:
        raise SnapshotError(
            f"snapshot {path!r} holds a {meta.get('kind')!r} payload, "
            f"not the expected {expect_kind!r}"
        )
    watermark = meta.get("txn_watermark")
    if isinstance(watermark, int):
        advance_txn_id_watermark(watermark)
    try:
        obj = pickle.loads(pickled)
    except Exception as exc:
        raise SnapshotError(
            f"cannot restore snapshot {path!r}: {exc}"
        ) from exc
    return obj, meta


def snapshot_system(system, path: str) -> Dict[str, Any]:
    """Save a wired :class:`~repro.sim.system.System` mid-run."""
    return save_snapshot(
        path, system, KIND_SYSTEM, system.current_cycle,
        extra_meta={"num_cores": system.num_cores},
    )


def restore_system(path: str):
    """Load a system snapshot; returns the :class:`System`."""
    from repro.sim.system import System

    system, _ = load_snapshot(path, expect_kind=KIND_SYSTEM)
    if not isinstance(system, System):
        raise SnapshotError(
            f"snapshot {path!r} holds a {type(system).__name__}, not a System"
        )
    return system
