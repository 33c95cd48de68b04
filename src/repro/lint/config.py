"""Lint configuration: the seam the checker fixture tests use.

The repo's policy lives in code — each checker's ``_DEFAULT_*``
constants name its allow-lists — so a real run (``python -m
repro.lint`` / ``repro lint``) uses a plain :class:`LintConfig` rooted
at the project.  ``checker_options`` exists so a fixture test can hand
a checker a different vocabulary (an ``allow-paths`` entry) without
touching the tree.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict


@dataclass
class LintConfig:
    """Resolved configuration for one lint run.

    ``checker_options`` is keyed by lower-case checker id (``rl005``,
    ``rl006``) and handed verbatim to the checker as its ``options``
    dict.
    """

    project_root: str = "."
    checker_options: Dict[str, dict] = field(default_factory=dict)

    def options_for(self, checker_id: str) -> dict:
        return self.checker_options.get(checker_id.lower(), {})


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
