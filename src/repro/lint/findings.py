"""Finding and severity types shared by every checker.

A :class:`Finding` is one diagnostic: where it is, which checker
produced it, how bad it is, and (optionally) a *stable key* naming the
symbol it is about, so JSON consumers and tests can match a finding
without pinning a line number.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Severity(enum.IntEnum):
    """Diagnostic severity.  Every finding is an error: the gate has
    no advisory tier."""

    ERROR = 2

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name.lower()


@dataclass(frozen=True)
class Finding:
    """One diagnostic emitted by a checker.

    ``path`` is always project-root-relative with forward slashes so
    findings are portable across machines.
    """

    checker_id: str
    severity: Severity
    path: str
    line: int
    column: int
    message: str
    hint: str = ""
    key: str = ""

    def as_text(self) -> str:
        text = (
            f"{self.path}:{self.line}:{self.column}: "
            f"{self.checker_id} [{self.severity}] {self.message}"
        )
        if self.hint:
            text += f" (hint: {self.hint})"
        return text

    def as_dict(self) -> dict:
        return {
            "checker": self.checker_id,
            "severity": str(self.severity),
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "message": self.message,
            "hint": self.hint,
            "key": self.key,
        }


def sort_findings(findings):
    """Stable display order: by file, then line, then checker id."""
    return sorted(findings, key=lambda f: (f.path, f.line, f.column, f.checker_id))


@dataclass
class LintResult:
    """Aggregate outcome of one lint run."""

    findings: list = field(default_factory=list)
    pragma_suppressed: int = 0
    files_checked: int = 0

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0
