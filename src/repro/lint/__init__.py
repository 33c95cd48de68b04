"""repro.lint — AST checks for what the simulator's tests cannot see.

Determinism, integer cycle math, the next-event contract and shaped
release timing are enforced by the test suite's pinned digests and
cycle-vs-columnar equivalence tests, not here.  This package keeps
only the checkers whose bug class passes those tests: RL005 (a bare
``print`` in library code) and RL006 (a silently swallowed
exception).  It is this repo's gate, not a product: the policy lives
in the checkers' own constants, inline pragmas
(:mod:`repro.lint.pragmas`) are the only suppression, and there is one
front end.  See docs/static-analysis.md for the checker catalog.

Run it as ``python -m repro.lint [paths...]`` or ``repro lint``.
"""

from repro.lint.config import LintConfig
from repro.lint.findings import Finding, LintResult, Severity
from repro.lint.registry import (
    Checker,
    ModuleContext,
    all_checkers,
    get_checker,
    register,
)
from repro.lint.runner import lint_paths, lint_source, main, run

__all__ = [
    "Checker",
    "Finding",
    "LintConfig",
    "LintResult",
    "ModuleContext",
    "Severity",
    "all_checkers",
    "get_checker",
    "lint_paths",
    "lint_source",
    "main",
    "register",
    "run",
]
