"""Inline suppression pragmas.

Two spellings, both comments so they never affect runtime:

* ``# repro-lint: disable=RL006`` — suppress the listed checkers (or
  ``all``) for findings anchored on the *same line*.
* ``# repro-lint: disable-next-line=RL005,RL006`` — same, but for the
  following line (useful when the offending line has no room).

Multiple ids are comma-separated.  These are the only suppression
mechanism, so grepping ``src`` for the pragma marker lists every
exception the tree carries.  An id that names no checker is itself a
finding (RL000, raised by the runner), so a pragma cannot outlive the
checker it silences.
"""

from __future__ import annotations

import re
from typing import Dict, Iterator, Set, Tuple

_PRAGMA_RE = re.compile(
    r"#\s*repro-lint:\s*(disable(?:-next-line)?)\s*=\s*([A-Za-z0-9_,\s]+)"
)

ALL = "ALL"


def iter_pragmas(source: str) -> Iterator[Tuple[int, int, int, Set[str]]]:
    """Yield ``(line, column, target line, ids)`` per pragma, 1-based;
    ids are upper-cased as written."""
    for lineno, line in enumerate(source.splitlines(), start=1):
        if "repro-lint" not in line:
            continue
        for match in _PRAGMA_RE.finditer(line):
            kind, ids_text = match.groups()
            target = lineno + 1 if kind.endswith("next-line") else lineno
            ids = {
                part.strip().upper()
                for part in ids_text.split(",")
                if part.strip()
            }
            yield lineno, match.start() + 1, target, ids


def parse_pragmas(source: str) -> Dict[int, Set[str]]:
    """Map 1-based line number -> set of disabled checker ids.

    The special member :data:`ALL` disables every checker on that line.
    """
    disabled: Dict[int, Set[str]] = {}
    for _line, _column, target, ids in iter_pragmas(source):
        disabled.setdefault(target, set()).update(
            {ALL} if ALL in ids else ids
        )
    return disabled


def is_suppressed(disabled: Dict[int, Set[str]], line: int, checker_id: str) -> bool:
    ids = disabled.get(line)
    if not ids:
        return False
    return ALL in ids or checker_id.upper() in ids
