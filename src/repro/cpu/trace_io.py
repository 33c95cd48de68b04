"""Trace persistence: save and load traces as portable text files.

Format (one record per line, ``#`` comments allowed)::

    # repro-trace v1 name=mcf
    12 0x7f3a40 R
    0 0x7f3a80 W

Files ending in ``.gz`` are transparently gzip-compressed.  The format
is deliberately trivial so traces captured from other tools (Pin,
DynamoRIO, gem5 scripts) can be converted with a one-liner and driven
through this simulator.
"""

from __future__ import annotations

import gzip
import io
import zlib
from array import array
from pathlib import Path
from typing import Union

from repro.common.errors import TraceFormatError
from repro.cpu.trace import MemoryTrace

_HEADER_PREFIX = "# repro-trace v1"

#: Gaps and addresses are held in signed 64-bit trace columns.
_COLUMN_LIMIT = 1 << 63


def _open(path: Path, mode: str):
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t", encoding="ascii")
    return open(path, mode, encoding="ascii")


def save_trace(trace: MemoryTrace, path: Union[str, Path]) -> None:
    """Write ``trace`` to ``path`` (gzip if the name ends in .gz)."""
    path = Path(path)
    with _open(path, "w") as handle:
        handle.write(f"{_HEADER_PREFIX} name={trace.name}\n")
        _write_records(handle, trace)


def load_trace(path: Union[str, Path]) -> MemoryTrace:
    """Read a trace previously written by :func:`save_trace`.

    Raises :class:`~repro.common.errors.TraceFormatError` (a
    :class:`~repro.common.errors.ConfigurationError` subclass) on any
    malformed line, carrying the file path and 1-based line number as
    ``source``/``line`` attributes; undecodable or corrupt-gzip files
    fail the same way with ``line=0``.
    """
    path = Path(path)
    source = str(path)
    name = path.stem
    gaps, addresses, writes = array("q"), array("q"), bytearray()
    try:
        with _open(path, "r") as handle:
            for line_number, raw in enumerate(handle, start=1):
                line = raw.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    if line.startswith(_HEADER_PREFIX):
                        for token in line.split():
                            if token.startswith("name="):
                                name = token[len("name="):]
                    continue
                parts = line.split()
                if len(parts) != 3:
                    raise TraceFormatError(
                        f"{path}:{line_number}: expected "
                        f"'<gap> <address> <R|W>', got {line!r}",
                        source=source, line=line_number,
                    )
                gap_text, address_text, kind = parts
                if kind not in ("R", "W"):
                    raise TraceFormatError(
                        f"{path}:{line_number}: access kind must be R or W, "
                        f"got {kind!r}",
                        source=source, line=line_number,
                    )
                try:
                    gap = int(gap_text)
                    address = int(address_text, 0)
                except ValueError as error:
                    raise TraceFormatError(
                        f"{path}:{line_number}: {error}",
                        source=source, line=line_number,
                    ) from None
                if not (0 <= gap < _COLUMN_LIMIT
                        and 0 <= address < _COLUMN_LIMIT):
                    raise TraceFormatError(
                        f"{path}:{line_number}: gap and address must lie "
                        f"in [0, 2**63), got {gap_text} {address_text}",
                        source=source, line=line_number,
                    )
                gaps.append(gap)
                addresses.append(address)
                writes.append(kind == "W")
    except (
        UnicodeDecodeError, gzip.BadGzipFile, zlib.error, EOFError,
    ) as error:
        raise TraceFormatError(
            f"{path}: not a readable trace file: {error}", source=source
        ) from None
    return MemoryTrace.from_columns(gaps, addresses, bytes(writes), name=name)


def trace_to_string(trace: MemoryTrace) -> str:
    """The text-format serialization as a string (for tests/pipes)."""
    buffer = io.StringIO()
    buffer.write(f"{_HEADER_PREFIX} name={trace.name}\n")
    _write_records(buffer, trace)
    return buffer.getvalue()


def _write_records(handle, trace: MemoryTrace) -> None:
    for gap, address, write in zip(trace.gaps, trace.addresses, trace.writes):
        handle.write(f"{gap} {address:#x} {'W' if write else 'R'}\n")
