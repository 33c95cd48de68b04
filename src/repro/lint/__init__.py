"""repro.lint — AST-based invariant checks for simulator soundness.

The shaping guarantee (release times match the target distribution)
and the next-event engine's bit-identical replay are *determinism*
guarantees; this package machine-checks the coding invariants they
rest on instead of trusting convention.  It is this repo's gate, not
a product: the policy (package scopes, allow-lists, taint vocabulary)
lives in the checkers' own constants, inline pragmas
(:mod:`repro.lint.pragmas`) are the only suppression, and there is one
front end.  See
docs/static-analysis.md for the checker catalog.

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
