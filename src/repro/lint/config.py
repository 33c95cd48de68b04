"""Lint configuration: the seam the checker fixture tests use.

The repo's policy lives in code — each checker's ``_DEFAULT_*``
constants name its package scopes, allow-lists and taint vocabulary —
so a real run (``python -m repro.lint`` / ``repro lint``) uses a plain
:class:`LintConfig` rooted at the project.  The fields exist so a
fixture test can hand a checker a different vocabulary (an ``exempt``
list, an ``allow-paths`` entry, extra ``sanitizers`` under the shared
``flow`` key), downgrade a severity or disable a checker for a path
without touching the tree.
"""

from __future__ import annotations

import fnmatch
import os
from dataclasses import dataclass, field
from typing import Dict, List

from repro.lint.findings import Severity


@dataclass
class LintConfig:
    """Resolved configuration for one lint run.

    ``checker_options`` is keyed by lower-case checker id (``rl001`` ..
    ``rl009``, plus ``flow`` for vocabulary shared by RL007–RL009) and
    handed verbatim to the checker as its ``options`` dict;
    ``severity_overrides`` by upper-case id.
    """

    project_root: str = "."
    severity_overrides: Dict[str, Severity] = field(default_factory=dict)
    disable_per_path: Dict[str, List[str]] = field(default_factory=dict)
    checker_options: Dict[str, dict] = field(default_factory=dict)

    def options_for(self, checker_id: str) -> dict:
        return self.checker_options.get(checker_id.lower(), {})

    def severity_for(self, checker_id: str, default: Severity) -> Severity:
        return self.severity_overrides.get(checker_id.upper(), default)

    def disabled_for_path(self, path: str) -> List[str]:
        """Checker ids disabled for ``path`` by per-path globs."""
        disabled: List[str] = []
        for pattern, ids in self.disable_per_path.items():
            pat = pattern.strip("/")
            if fnmatch.fnmatch(path, pat) or fnmatch.fnmatch(path, "*/" + pat):
                disabled.extend(i.upper() for i in ids)
        return disabled


def find_project_root(start: str) -> str:
    """Walk up from ``start`` to the nearest dir holding pyproject.toml."""
    current = os.path.abspath(start)
    while True:
        if os.path.isfile(os.path.join(current, "pyproject.toml")):
            return current
        parent = os.path.dirname(current)
        if parent == current:
            return os.path.abspath(start)
        current = parent
