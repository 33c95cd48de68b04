"""Checker registry: the extension point of :mod:`repro.lint`.

A checker subclasses :class:`Checker`, declares an ``id`` (``RLnnn``),
and implements :meth:`Checker.check_module` over a parsed
:class:`ModuleContext`.  Decorating the class with :func:`register`
makes it discoverable; the runner instantiates every registered
checker once per run.  See ``docs/static-analysis.md`` for the full
recipe for adding one.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Type

from repro.lint.findings import Finding, Severity


@dataclass
class ModuleContext:
    """Everything a checker needs to analyse one module.

    ``path`` is project-root-relative with forward slashes; checkers
    match their per-path options (package scopes, allow lists) against
    it.  ``options`` is this checker's entry in
    :attr:`LintConfig.checker_options` (empty on a real run: the
    checker's own defaults are the policy), and ``severity`` the
    effective severity after any config override.
    """

    path: str
    tree: ast.Module
    source: str
    options: dict
    severity: Severity

    def finding(
        self,
        checker_id: str,
        node: ast.AST,
        message: str,
        hint: str = "",
        key: str = "",
    ) -> Finding:
        """Build a :class:`Finding` anchored at ``node``."""
        return Finding(
            checker_id=checker_id,
            severity=self.severity,
            path=self.path,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0) + 1,
            message=message,
            hint=hint,
            key=key,
        )


class Checker:
    """Base class for all checkers."""

    id: str = ""
    name: str = ""
    description: str = ""
    default_severity: Severity = Severity.ERROR

    def check_module(self, module: ModuleContext) -> Iterable[Finding]:
        raise NotImplementedError

    # -- shared helpers ----------------------------------------------------

    @staticmethod
    def path_in_packages(path: str, packages: Iterable[str]) -> bool:
        """True when ``path`` lives under any of the package prefixes.

        Prefixes are matched against the tail of the path so configs
        can say ``repro/dram`` regardless of the source root name.
        """
        for prefix in packages:
            prefix = prefix.strip("/")
            if not prefix:
                return True
            if path.startswith(prefix + "/") or f"/{prefix}/" in f"/{path}":
                return True
        return False

    @staticmethod
    def path_matches(path: str, candidates: Iterable[str]) -> bool:
        """True when ``path`` ends with any candidate path suffix."""
        return any(
            path == c or path.endswith("/" + c.lstrip("/")) for c in candidates
        )


class FlowChecker(Checker):
    """Base class for whole-program (interprocedural) checkers.

    Flow checkers see the entire :class:`repro.lint.flow.FlowProject`
    at once instead of one module at a time; the runner invokes
    :meth:`check_project` exactly once per run, after the per-module
    pass.  ``check_module`` is a no-op so a flow checker can share the
    registry and id space (RLnnn) with the local checkers.
    """

    def check_module(self, module: ModuleContext) -> Iterable[Finding]:
        return ()

    def check_project(self, project) -> Iterable[Finding]:
        """Analyse a :class:`repro.lint.flow.FlowProject`."""
        raise NotImplementedError


_REGISTRY: Dict[str, Type[Checker]] = {}


def register(cls: Type[Checker]) -> Type[Checker]:
    """Class decorator adding a checker to the global registry."""
    if not cls.id:
        raise ValueError(f"checker {cls.__name__} must declare an id")
    if cls.id in _REGISTRY:
        raise ValueError(f"duplicate checker id {cls.id}")
    _REGISTRY[cls.id] = cls
    return cls


def all_checkers() -> List[Checker]:
    """Instantiate every registered checker, sorted by id."""
    import repro.lint.checkers  # noqa: F401  (registration side effect)

    return [_REGISTRY[cid]() for cid in sorted(_REGISTRY)]


def get_checker(checker_id: str) -> Optional[Checker]:
    import repro.lint.checkers  # noqa: F401

    cls = _REGISTRY.get(checker_id)
    return cls() if cls else None
