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
    match their allow lists against it.  ``options`` is this checker's
    entry in :attr:`LintConfig.checker_options` (empty on a real run:
    the checker's own defaults are the policy).
    """

    path: str
    tree: ast.Module
    source: str
    options: dict

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
            severity=Severity.ERROR,
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

    def check_module(self, module: ModuleContext) -> Iterable[Finding]:
        raise NotImplementedError

    # -- shared helpers ----------------------------------------------------

    @staticmethod
    def path_matches(path: str, candidates: Iterable[str]) -> bool:
        """True when ``path`` ends with any candidate path suffix."""
        return any(
            path == c or path.endswith("/" + c.lstrip("/")) for c in candidates
        )


_REGISTRY: Dict[str, Type[Checker]] = {}


def register(cls: Type[Checker]) -> Type[Checker]:
    """Class decorator adding a checker to the global registry."""
    if not cls.id:
        raise ValueError(f"checker {cls.__name__} must declare an id")
    if cls.id in _REGISTRY:
        raise ValueError(f"duplicate checker id {cls.id}")
    _REGISTRY[cls.id] = cls
    return cls


def checker_ids() -> List[str]:
    """Every registered checker id, sorted."""
    import repro.lint.checkers  # noqa: F401  (registration side effect)

    return sorted(_REGISTRY)


def all_checkers() -> List[Checker]:
    """Instantiate every registered checker, sorted by id."""
    return [_REGISTRY[cid]() for cid in checker_ids()]


def get_checker(checker_id: str) -> Optional[Checker]:
    import repro.lint.checkers  # noqa: F401

    cls = _REGISTRY.get(checker_id)
    return cls() if cls else None
