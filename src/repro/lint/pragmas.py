"""Inline suppression pragmas.

Two spellings, both comments so they never affect runtime:

* ``# repro-lint: disable=RL001`` — suppress the listed checkers (or
  ``all``) for findings anchored on the *same line*.
* ``# repro-lint: disable-next-line=RL002,RL003`` — same, but for the
  following line (useful when the offending line has no room).

Multiple ids are comma-separated.  These are the only suppression
mechanism, so grepping ``src`` for the pragma marker lists every
exception the tree carries.
"""

from __future__ import annotations

import re
from typing import Dict, Set

_PRAGMA_RE = re.compile(
    r"#\s*repro-lint:\s*(disable(?:-next-line)?)\s*=\s*([A-Za-z0-9_,\s]+)"
)

ALL = "ALL"


def parse_pragmas(source: str) -> Dict[int, Set[str]]:
    """Map 1-based line number -> set of disabled checker ids.

    The special member :data:`ALL` disables every checker on that line.
    """
    disabled: Dict[int, Set[str]] = {}
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
            if "ALL" in ids:
                ids = {ALL}
            disabled.setdefault(target, set()).update(ids)
    return disabled


def is_suppressed(disabled: Dict[int, Set[str]], line: int, checker_id: str) -> bool:
    ids = disabled.get(line)
    if not ids:
        return False
    return ALL in ids or checker_id.upper() in ids
