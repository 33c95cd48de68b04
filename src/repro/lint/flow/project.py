"""The module universe a flow checker analyses.

A :class:`FlowProject` owns every parsed module of one lint run, keyed
by project-root-relative path, plus the per-checker options and
severity resolution the per-module :class:`~repro.lint.registry
.ModuleContext` provides for the local checkers.  Building it parses
each file exactly once; the call graph and function index are derived
lazily and shared by every flow checker in the run.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

from repro.lint.findings import Finding, FlowStep, Severity

#: ``# repro-lint: sanitizer=RL007`` (comma-separated ids) on a
#: ``def`` line — or the line directly above it — declares the
#: function a trusted interface for those checkers: taint does not
#: enter, propagate through, or originate inside it.
_SANITIZER_RE = re.compile(
    r"#\s*repro-lint:\s*sanitizer\s*=\s*([A-Za-z0-9_,\s]+)"
)


def module_name_for_path(path: str) -> str:
    """Dotted module name for a project-relative file path.

    ``src/repro/core/shaper.py`` → ``repro.core.shaper``;
    ``__init__.py`` maps to its package.  Paths outside a recognisable
    source root still get a stable dotted name from their components.
    """
    parts = path.replace("\\", "/").split("/")
    if parts and parts[0] in ("src", "lib"):
        parts = parts[1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(p for p in parts if p)


def parse_sanitizer_pragmas(source: str) -> Dict[int, Tuple[str, ...]]:
    """Map 1-based line number -> checker ids declared sanitized there.

    Both the ``def`` line itself and the line above it are accepted
    anchors, so the pragma can sit on its own comment line.
    """
    out: Dict[int, Tuple[str, ...]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        if "repro-lint" not in line:
            continue
        match = _SANITIZER_RE.search(line)
        if match:
            ids = tuple(
                part.strip().upper()
                for part in match.group(1).split(",")
                if part.strip()
            )
            out[lineno] = ids
    return out


@dataclass
class ProjectModule:
    """One parsed module of the project."""

    path: str
    module: str
    tree: ast.Module
    source: str
    #: line -> checker ids from ``sanitizer=`` pragmas in this module.
    sanitizer_lines: Dict[int, Tuple[str, ...]] = field(default_factory=dict)

    @classmethod
    def parse(cls, path: str, source: str) -> "ProjectModule":
        return cls(
            path=path,
            module=module_name_for_path(path),
            tree=ast.parse(source, filename=path),
            source=source,
            sanitizer_lines=parse_sanitizer_pragmas(source),
        )


class FlowProject:
    """Everything a flow checker needs to analyse the whole program."""

    def __init__(
        self,
        modules: Iterable[ProjectModule],
        config=None,
    ) -> None:
        self.modules: Dict[str, ProjectModule] = {}
        for mod in modules:
            self.modules[mod.path] = mod
        self._config = config
        self._index = None
        self._callgraph = None

    @classmethod
    def from_sources(
        cls, sources: Iterable[Tuple[str, str]], config=None
    ) -> "FlowProject":
        """Build from ``(rel_path, source)`` pairs, skipping files that
        do not parse (the per-module pass reports those as RL000)."""
        modules: List[ProjectModule] = []
        for path, source in sources:
            try:
                modules.append(ProjectModule.parse(path, source))
            except SyntaxError:
                continue
        return cls(modules, config=config)

    # -- config plumbing ---------------------------------------------------

    def options_for(self, checker_id: str) -> dict:
        if self._config is None:
            return {}
        return self._config.options_for(checker_id)

    def severity_for(self, checker_id: str, default: Severity) -> Severity:
        if self._config is None:
            return default
        return self._config.severity_for(checker_id, default)

    # -- derived structure (built once, shared by all flow checkers) -------

    @property
    def index(self):
        if self._index is None:
            from repro.lint.flow.summaries import build_index

            self._index = build_index(self)
        return self._index

    @property
    def callgraph(self):
        if self._callgraph is None:
            from repro.lint.flow.callgraph import CallGraph

            self._callgraph = CallGraph(self, self.index)
        return self._callgraph

    # -- finding construction ----------------------------------------------

    def finding(
        self,
        checker_id: str,
        path: str,
        node: ast.AST,
        message: str,
        hint: str = "",
        key: str = "",
        flow: Tuple[FlowStep, ...] = (),
        default_severity: Severity = Severity.ERROR,
    ) -> Finding:
        return Finding(
            checker_id=checker_id,
            severity=self.severity_for(checker_id, default_severity),
            path=path,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0) + 1,
            message=message,
            hint=hint,
            key=key,
            flow=flow,
        )
