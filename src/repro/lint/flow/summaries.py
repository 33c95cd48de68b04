"""Per-function summaries and the project-wide symbol index.

A :class:`FunctionInfo` is the unit of interprocedural analysis: one
``def`` (module-level, method, or nested) with its dotted qualname,
parameter list, declared sanitizer ids, and the raw AST body the taint
engine interprets.  :func:`build_index` walks every project module
once and produces the :class:`ProjectIndex` the call graph and the
checkers share:

* ``functions`` — every function by dotted qualname
  (``repro.core.shaper.BinShaper.release_real``).
* ``methods_by_name`` — bare method name → defining qualnames, the
  class-hierarchy-agnostic resolution set for ``obj.meth(...)`` calls.
* ``classes_by_name`` — bare class name → class qualnames (for
  constructor calls).
* ``aliases`` — per-module import alias tables mapping local names to
  canonical dotted paths (``np`` → ``numpy``, ``Random`` →
  ``random.Random``), the same resolution RL001 performs locally.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.lint.flow.project import FlowProject, ProjectModule


@dataclass
class FunctionInfo:
    """One analysed function/method."""

    qualname: str
    name: str
    path: str
    module: str
    class_name: Optional[str]
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    params: Tuple[str, ...]
    #: Checker ids this function is a declared sanitizer for
    #: (``# repro-lint: sanitizer=RL007`` on/above the def line).
    sanitizer_ids: Tuple[str, ...] = ()
    #: Positional-arity window (``self`` included): required
    #: positional count, and the positional capacity (None = ``*args``).
    #: The call graph uses it to reject arity-incompatible candidates
    #: in class-hierarchy-agnostic ``recv.meth(...)`` resolution.
    min_positional: int = 0
    max_positional: Optional[int] = None

    @property
    def lineno(self) -> int:
        return getattr(self.node, "lineno", 1)

    def is_sanitizer_for(self, checker_id: str) -> bool:
        return checker_id.upper() in self.sanitizer_ids


@dataclass
class ProjectIndex:
    """Symbol tables shared by the call graph and the flow checkers."""

    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    methods_by_name: Dict[str, List[str]] = field(default_factory=dict)
    classes_by_name: Dict[str, List[str]] = field(default_factory=dict)
    #: class qualname -> method name -> function qualname
    class_methods: Dict[str, Dict[str, str]] = field(default_factory=dict)
    #: class qualname -> same-module base class qualnames
    class_bases: Dict[str, List[str]] = field(default_factory=dict)
    #: module path -> local name -> canonical dotted path
    aliases: Dict[str, Dict[str, str]] = field(default_factory=dict)
    #: dotted module name -> module path
    module_paths: Dict[str, str] = field(default_factory=dict)

    def resolve_method(self, class_qualname: str, name: str) -> Optional[str]:
        """Find ``name`` on the class or its same-module bases."""
        seen = set()
        stack = [class_qualname]
        while stack:
            cls = stack.pop()
            if cls in seen:
                continue
            seen.add(cls)
            method = self.class_methods.get(cls, {}).get(name)
            if method is not None:
                return method
            stack.extend(self.class_bases.get(cls, []))
        return None


def _param_names(node) -> Tuple[str, ...]:
    args = node.args
    names = [a.arg for a in getattr(args, "posonlyargs", [])]
    names.extend(a.arg for a in args.args)
    if args.vararg:
        names.append(args.vararg.arg)
    names.extend(a.arg for a in args.kwonlyargs)
    if args.kwarg:
        names.append(args.kwarg.arg)
    return tuple(names)


def _positional_arity(node) -> Tuple[int, Optional[int]]:
    args = node.args
    positional = len(getattr(args, "posonlyargs", [])) + len(args.args)
    required = max(0, positional - len(args.defaults))
    capacity = None if args.vararg else positional
    return required, capacity


def _sanitizer_ids_for(node, mod: ProjectModule) -> Tuple[str, ...]:
    ids: List[str] = []
    for anchor in (node.lineno, node.lineno - 1):
        ids.extend(mod.sanitizer_lines.get(anchor, ()))
    # Decorated defs anchor at the ``def`` line, but the pragma may sit
    # above the first decorator; accept that anchor too.
    if node.decorator_list:
        first = min(d.lineno for d in node.decorator_list)
        for anchor in (first, first - 1):
            ids.extend(mod.sanitizer_lines.get(anchor, ()))
    return tuple(dict.fromkeys(ids))


class _ModuleIndexer(ast.NodeVisitor):
    def __init__(self, mod: ProjectModule, index: ProjectIndex) -> None:
        self.mod = mod
        self.index = index
        self._scope: List[str] = []  # class/function name stack
        self._class_stack: List[str] = []  # class qualnames

    # -- imports -----------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        table = self.index.aliases.setdefault(self.mod.path, {})
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            canonical = alias.name if alias.asname else alias.name.split(".")[0]
            table[local] = canonical

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        table = self.index.aliases.setdefault(self.mod.path, {})
        if node.level:
            # Relative import: resolve against this module's package.
            package = self.mod.module.rsplit(".", node.level)[0] if (
                "." in self.mod.module or node.level == 1
            ) else ""
            base = f"{package}.{node.module}" if node.module else package
        else:
            base = node.module or ""
        for alias in node.names:
            local = alias.asname or alias.name
            table[local] = f"{base}.{alias.name}" if base else alias.name

    # -- defs --------------------------------------------------------------

    def _qual(self, name: str) -> str:
        parts = [self.mod.module] if self.mod.module else []
        parts.extend(self._scope)
        parts.append(name)
        return ".".join(parts)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        qual = self._qual(node.name)
        self.index.classes_by_name.setdefault(node.name, []).append(qual)
        self.index.class_methods.setdefault(qual, {})
        bases: List[str] = []
        for base in node.bases:
            if isinstance(base, ast.Name):
                candidate = self._qual(base.id)
                # Same-module base only; cross-module bases resolve via
                # the methods_by_name fallback.
                sibling = ".".join(
                    ([self.mod.module] if self.mod.module else [])
                    + [base.id]
                )
                if sibling in self.index.class_methods:
                    bases.append(sibling)
                elif candidate in self.index.class_methods:
                    bases.append(candidate)
                else:
                    bases.append(sibling)
        self.index.class_bases[qual] = bases
        self._scope.append(node.name)
        self._class_stack.append(qual)
        self.generic_visit(node)
        self._class_stack.pop()
        self._scope.pop()

    def _visit_def(self, node) -> None:
        qual = self._qual(node.name)
        class_qual = self._class_stack[-1] if self._class_stack else None
        class_name = class_qual.rsplit(".", 1)[-1] if class_qual else None
        min_pos, max_pos = _positional_arity(node)
        info = FunctionInfo(
            qualname=qual,
            name=node.name,
            path=self.mod.path,
            module=self.mod.module,
            class_name=class_name,
            node=node,
            params=_param_names(node),
            sanitizer_ids=_sanitizer_ids_for(node, self.mod),
            min_positional=min_pos,
            max_positional=max_pos,
        )
        self.index.functions[qual] = info
        if class_qual is not None and len(self._scope) == 1:
            self.index.class_methods[class_qual][node.name] = qual
            self.index.methods_by_name.setdefault(node.name, []).append(qual)
        self._scope.append(node.name)
        self.generic_visit(node)
        self._scope.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_def(node)

    def visit_AsyncFunctionDef(self, node) -> None:
        self._visit_def(node)


def build_index(project: FlowProject) -> ProjectIndex:
    """Walk every module once and build the shared symbol index."""
    index = ProjectIndex()
    for mod in project.modules.values():
        index.module_paths[mod.module] = mod.path
    for mod in sorted(project.modules.values(), key=lambda m: m.path):
        _ModuleIndexer(mod, index).visit(mod.tree)
    return index
