"""Name- and alias-resolved call edges over a :class:`FlowProject`.

Resolution is deliberately lightweight — this is a lint-grade call
graph, not a type inferencer:

* bare names resolve to same-module functions, then through the
  module's import alias table (``from x import f``);
* ``ClassName(...)`` resolves to ``ClassName.__init__`` when the class
  is defined in the project;
* ``self.meth(...)`` resolves through the enclosing class and its
  same-module bases;
* any other ``recv.meth(...)`` resolves to *every* project class
  defining ``meth`` whose positional arity can accept the call site
  (class-hierarchy-agnostic, like CHA without a hierarchy) —
  conservative over-approximation is the right failure mode for an
  invariant checker, but the arity filter rejects impossible
  dispatches such as a 1-argument file ``handle.write(line)``
  resolving to ``Bank.write(self, cycle, row)``;
* ``recv.table[i](...)`` (calling through a subscripted attribute,
  the columnar engine's bound-method caches) resolves through the
  subscript as if it were the attribute itself.

Unresolvable callees (builtins, stdlib, numpy) produce no edge; the
taint engine treats them as taint-propagating unless a sanitizer
pattern says otherwise.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from repro.lint.flow.project import FlowProject
from repro.lint.flow.summaries import FunctionInfo, ProjectIndex


def iter_body_nodes(func_node):
    """All AST nodes of a function body, excluding nested def bodies.

    Nested functions/classes are separate :class:`FunctionInfo` units;
    walking into them here would double-count their statements.
    """
    stack = list(func_node.body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))


def dotted_parts(expr: ast.AST) -> Optional[List[str]]:
    """``self.shaper.earliest_real_release`` → its name parts, or None.

    Subscripts are looked through (``self._core_tick[i]`` →
    ``self._core_tick``); anything else (call results, literals) ends
    the chain unresolved.
    """
    parts: List[str] = []
    node = expr
    while True:
        if isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        elif isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Name):
            parts.append(node.id)
            return list(reversed(parts))
        else:
            return None


class CallGraph:
    """Call edges plus per-function resolved call sites."""

    def __init__(self, project: FlowProject, index: ProjectIndex) -> None:
        self.project = project
        self.index = index
        #: caller qualname -> set of callee qualnames
        self.edges: Dict[str, Set[str]] = {}
        #: callee qualname -> set of caller qualnames
        self.callers: Dict[str, Set[str]] = {}
        #: caller qualname -> [(Call node, dotted text, callee quals)]
        self.call_sites: Dict[
            str, List[Tuple[ast.Call, str, Tuple[str, ...]]]
        ] = {}
        for info in index.functions.values():
            self._scan(info)

    # -- resolution --------------------------------------------------------

    def dotted_text(self, path: str, expr: ast.AST) -> str:
        """Alias-canonicalised dotted text of a name chain, or ''.

        ``np.random.default_rng`` → ``numpy.random.default_rng``;
        ``self._rng.random`` stays ``self._rng.random`` (the ``self``
        root is not an alias).
        """
        parts = dotted_parts(expr)
        if not parts:
            return ""
        table = self.index.aliases.get(path, {})
        root = table.get(parts[0], parts[0])
        return ".".join([root] + parts[1:])

    def resolve_call(
        self, func: FunctionInfo, call: ast.Call
    ) -> Tuple[str, ...]:
        """Project function qualnames this call may dispatch to."""
        parts = dotted_parts(call.func)
        if not parts:
            return ()
        index = self.index
        # self.meth(...) — enclosing class first.
        if parts[0] == "self" and func.class_name and len(parts) == 2:
            class_qual = f"{func.module}.{func.class_name}"
            resolved = index.resolve_method(class_qual, parts[1])
            if resolved is not None:
                return (resolved,)
            return self._methods_named(parts[1], call)
        table = index.aliases.get(func.path, {})
        root = table.get(parts[0], parts[0])
        dotted = ".".join([root] + parts[1:])
        # Fully-qualified (or imported) project function.
        if dotted in index.functions:
            return (dotted,)
        # Same-module bare name.
        if len(parts) == 1:
            local = f"{func.module}.{parts[0]}" if func.module else parts[0]
            if local in index.functions:
                return (local,)
            # Nested function of the same enclosing scope.
            host = func.qualname.rsplit(".", 1)[0]
            nested = f"{host}.{parts[0]}"
            if nested in index.functions:
                return (nested,)
        # Constructor call: ClassName(...) or pkg.mod.ClassName(...).
        ctor = self._constructor_for(dotted, parts)
        if ctor is not None:
            return ctor
        # recv.meth(...): every project class defining meth.
        if len(parts) >= 2:
            return self._methods_named(parts[-1], call)
        return ()

    def _methods_named(
        self, name: str, call: ast.Call
    ) -> Tuple[str, ...]:
        """CHA-style candidates for ``name``, arity-filtered."""
        return tuple(
            qual
            for qual in self.index.methods_by_name.get(name, ())
            if self._arity_compatible(call, qual)
        )

    def _arity_compatible(self, call: ast.Call, qualname: str) -> bool:
        """Can this call site's argument shape dispatch to ``qualname``?

        Filters only *impossible* dispatches; starred/double-starred
        call sites are unknowable and stay compatible.
        """
        info = self.index.functions.get(qualname)
        if info is None:
            return True
        if any(isinstance(a, ast.Starred) for a in call.args):
            return True
        if any(k.arg is None for k in call.keywords):
            return True
        offset = 1 if info.params and info.params[0] == "self" else 0
        supplied_pos = len(call.args)
        supplied_kw = len(call.keywords)
        required = max(0, info.min_positional - offset)
        if supplied_pos + supplied_kw < required:
            return False
        if info.max_positional is not None:
            if supplied_pos > max(0, info.max_positional - offset):
                return False
        return True

    def _constructor_for(
        self, dotted: str, parts: List[str]
    ) -> Optional[Tuple[str, ...]]:
        index = self.index
        if dotted in index.class_methods:
            init = index.class_methods[dotted].get("__init__")
            return (init,) if init else ()
        if len(parts) == 1:
            quals = index.classes_by_name.get(parts[0])
            if quals:
                inits = [
                    index.class_methods.get(q, {}).get("__init__")
                    for q in quals
                ]
                return tuple(i for i in inits if i)
        return None

    # -- edge construction -------------------------------------------------

    def _scan(self, info: FunctionInfo) -> None:
        sites: List[Tuple[ast.Call, str, Tuple[str, ...]]] = []
        edges = self.edges.setdefault(info.qualname, set())
        for node in iter_body_nodes(info.node):
            if not isinstance(node, ast.Call):
                continue
            dotted = self.dotted_text(info.path, node.func)
            targets = self.resolve_call(info, node)
            sites.append((node, dotted, targets))
            for target in targets:
                edges.add(target)
                self.callers.setdefault(target, set()).add(info.qualname)
        self.call_sites[info.qualname] = sites

    # -- reachability helpers ---------------------------------------------

    def transitive_callees(self, qualname: str) -> Set[str]:
        seen: Set[str] = set()
        stack = [qualname]
        while stack:
            current = stack.pop()
            for callee in self.edges.get(current, ()):
                if callee not in seen:
                    seen.add(callee)
                    stack.append(callee)
        return seen
