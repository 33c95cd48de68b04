"""Finding and severity types shared by every checker.

A :class:`Finding` is one diagnostic: where it is, which checker
produced it, how bad it is, and (optionally) a *stable key* naming the
symbol (class, function, or dotted call target) it is about, so JSON
consumers and tests can match a finding without pinning a line number.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Tuple


class Severity(enum.IntEnum):
    """Diagnostic severity, ordered so ``ERROR > WARNING``."""

    WARNING = 1
    ERROR = 2

    @classmethod
    def parse(cls, text: str) -> "Severity":
        try:
            return cls[text.strip().upper()]
        except KeyError:
            raise ValueError(
                f"unknown severity {text!r}: expected 'warning' or 'error'"
            ) from None

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name.lower()


@dataclass(frozen=True)
class FlowStep:
    """One hop of an interprocedural source→sink flow path.

    Emitted by the flow checkers (RL007–RL009): the first step is the
    taint source, the last the sink, intermediate steps the calls and
    assignments the taint travelled through.  Rendered as indented
    continuation lines in text output and as ``flow`` in JSON.
    """

    path: str
    line: int
    note: str

    def as_dict(self) -> dict:
        return {"path": self.path, "line": self.line, "note": self.note}


@dataclass(frozen=True)
class Finding:
    """One diagnostic emitted by a checker.

    ``path`` is always project-root-relative with forward slashes so
    findings are portable across machines.
    ``flow`` (flow checkers only) is the source→sink path, source
    first.
    """

    checker_id: str
    severity: Severity
    path: str
    line: int
    column: int
    message: str
    hint: str = ""
    key: str = ""
    flow: Tuple[FlowStep, ...] = ()

    def as_text(self) -> str:
        text = (
            f"{self.path}:{self.line}:{self.column}: "
            f"{self.checker_id} [{self.severity}] {self.message}"
        )
        if self.hint:
            text += f" (hint: {self.hint})"
        for i, step in enumerate(self.flow):
            role = (
                "source" if i == 0
                else ("sink" if i == len(self.flow) - 1 else "via")
            )
            text += (
                f"\n    {role}: {step.path}:{step.line}  {step.note}"
            )
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
            "flow": [step.as_dict() for step in self.flow],
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
        return 1 if any(f.severity >= Severity.ERROR for f in self.findings) else 0
