"""The configurable interprocedural taint engine.

A checker declares a :class:`TaintSpec` — *sources* (attribute reads
and calls that introduce tainted data), *sinks* (function returns,
attribute writes, call arguments that tainted data must never reach)
and *sanitizers* (trusted interfaces that launder taint) — and the
:class:`TaintEngine` computes a fixed point over the whole project:

* **attribute accesses** are tracked field-based (by attribute name,
  class-qualified when the receiver is ``self``): storing tainted
  data in ``self.x`` taints every later read of ``.x``;
* **call edges** propagate taint from arguments into the callee's
  parameters and from the callee's return back to the call site, over
  the :class:`~repro.lint.flow.callgraph.CallGraph`'s resolved edges;
* **container writes** (``lst[i] = secret``, ``d[k] = secret``,
  ``lst.append(secret)`` via unknown-call propagation) taint the
  container;
* **unknown callees** (builtins, stdlib, numpy) conservatively
  propagate taint from any argument to the result — ``len(tainted)``
  and ``max(cycle, tainted)`` stay tainted.

Only *explicit* (data) flows are tracked: a value computed under a
tainted branch condition is **not** tainted (``if self._buffer:``
gating which clean bound to return is sanctioned; returning
``len(self._buffer)`` is not).  This matches the secret-independence
argument in docs/security.md — the checker polices the values that
become externally visible timing, not the simulator's internal
control flow.

Facts are monotone (a symbol never becomes un-tainted and its first
witness is kept), so the fixed point terminates on cyclic call graphs
and recursive functions.  Each tainted fact carries a witness chain
from which findings reconstruct the full source→sink flow path.

Sanitizer precedence: a call that matches both a source and a
sanitizer pattern is clean, and a function *declared* a sanitizer
(``# repro-lint: sanitizer=RLnnn`` or a spec pattern) is fully
opaque — taint neither enters it, propagates through it, nor
originates inside its body.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from fnmatch import fnmatchcase
from typing import Dict, List, Optional, Sequence, Tuple

from repro.lint.findings import FlowStep
from repro.lint.flow.callgraph import CallGraph
from repro.lint.flow.project import FlowProject
from repro.lint.flow.summaries import FunctionInfo, ProjectIndex

#: Witness chains longer than this are truncated in reports (the fixed
#: point itself is unaffected — facts stay monotone).
_MAX_FLOW_STEPS = 24

#: Inner (per-function, flow-insensitive) iteration cap; locals
#: stabilise in two passes for straight-line code, a few more under
#: mutually-dependent assignments.
_MAX_LOCAL_ROUNDS = 10

#: Outer whole-program rounds; each round re-analyses every function
#: against the grown fact base.
_MAX_GLOBAL_ROUNDS = 50


@dataclass(frozen=True)
class Witness:
    """One link of a taint provenance chain (source-most link last)."""

    path: str
    line: int
    note: str
    prev: Optional["Witness"] = None

    def extend(self, path: str, line: int, note: str) -> "Witness":
        return Witness(path=path, line=line, note=note, prev=self)

    def steps(self) -> Tuple[FlowStep, ...]:
        chain: List[FlowStep] = []
        node: Optional[Witness] = self
        while node is not None and len(chain) < _MAX_FLOW_STEPS:
            chain.append(FlowStep(node.path, node.line, node.note))
            node = node.prev
        chain.reverse()
        return tuple(chain)

    @property
    def origin(self) -> "Witness":
        node = self
        while node.prev is not None:
            node = node.prev
        return node


@dataclass
class TaintSpec:
    """Source/sink/sanitizer declaration for one flow checker.

    Patterns are dotted-name globs (:func:`fnmatch.fnmatchcase`, where
    ``*`` crosses dots).  Attribute patterns are ``Class.attr`` or
    ``*.attr``; an attribute read through a receiver whose class is
    unknown matches on the attribute part alone (conservative).
    Call/function patterns match the resolved project qualname *and*
    the alias-canonicalised dotted call text, so
    ``repro.core.bins.*`` and ``*.earliest_real_release`` both work.
    ``sink_call_args`` entries are ``<callee-pattern>:<param-name>``
    (``*`` for any parameter).
    """

    checker_id: str
    source_attrs: Sequence[str] = ()
    source_calls: Sequence[str] = ()
    sink_returns: Sequence[str] = ()
    sink_attr_writes: Sequence[str] = ()
    sink_call_args: Sequence[str] = ()
    sanitizers: Sequence[str] = ()
    #: Attributes declared always-clean: reads return no taint and
    #: writes are dropped.  Use for shared infrastructure fields that
    #: would otherwise act as false taint hubs under field-based
    #: tracking (e.g. the simulator clock ``*.current_cycle``, which
    #: every component reads and the engine advances from internally
    #: computed — demand-dependent but sanctioned — event targets).
    clean_attrs: Sequence[str] = ()


@dataclass(frozen=True)
class TaintHit:
    """One sink reached by tainted data (pre-Finding form)."""

    kind: str  # "return" | "attr-write" | "call-arg"
    func: FunctionInfo
    node: ast.AST
    detail: str
    flow: Tuple[FlowStep, ...]

    @property
    def source_note(self) -> str:
        return self.flow[0].note if self.flow else ""


def _match_any(text: str, patterns: Sequence[str]) -> bool:
    return any(fnmatchcase(text, p) for p in patterns)


def _match_attr(
    class_name: Optional[str], attr: str, patterns: Sequence[str]
) -> bool:
    for pattern in patterns:
        cls_pat, _, attr_pat = pattern.rpartition(".")
        if not attr_pat:
            continue
        if not fnmatchcase(attr, attr_pat):
            continue
        if not cls_pat or cls_pat == "*":
            return True
        if class_name is None or fnmatchcase(class_name, cls_pat):
            # Unknown receiver class: match conservatively.
            return True
    return False


class TaintEngine:
    """Fixed-point taint propagation over one :class:`FlowProject`."""

    def __init__(self, project: FlowProject, spec: TaintSpec) -> None:
        self.project = project
        self.spec = spec
        self.index: ProjectIndex = project.index
        self.callgraph: CallGraph = project.callgraph
        # Global facts (monotone).
        self._ret: Dict[str, Witness] = {}
        self._attr: Dict[str, Witness] = {}
        self._param: Dict[Tuple[str, str], Witness] = {}
        self._changed = False
        self._hits: Dict[Tuple[str, int, int, str, str], TaintHit] = {}

    # -- public API --------------------------------------------------------

    def run(self) -> List[TaintHit]:
        functions = sorted(
            (
                f
                for f in self.index.functions.values()
                if not self._is_sanitizer_fn(f)
            ),
            key=lambda f: f.qualname,
        )
        for _ in range(_MAX_GLOBAL_ROUNDS):
            self._changed = False
            for func in functions:
                self._analyze(func)
            if not self._changed:
                break
        return sorted(
            self._hits.values(),
            key=lambda h: (h.func.path, h.node.lineno, h.kind, h.detail),
        )

    # -- sanitizer / pattern plumbing --------------------------------------

    def _is_sanitizer_fn(self, func: FunctionInfo) -> bool:
        return func.is_sanitizer_for(self.spec.checker_id) or _match_any(
            func.qualname, self.spec.sanitizers
        )

    def _call_is_sanitized(
        self, dotted: str, targets: Tuple[str, ...]
    ) -> bool:
        if dotted and _match_any(dotted, self.spec.sanitizers):
            return True
        for target in targets:
            info = self.index.functions.get(target)
            if info is not None and self._is_sanitizer_fn(info):
                return True
            if _match_any(target, self.spec.sanitizers):
                return True
        return False

    # -- fact updates ------------------------------------------------------

    def _set_ret(self, qualname: str, witness: Witness) -> None:
        if qualname not in self._ret:
            self._ret[qualname] = witness
            self._changed = True

    def _set_attr(self, attr: str, witness: Witness) -> None:
        if attr not in self._attr:
            self._attr[attr] = witness
            self._changed = True

    def _set_param(self, qualname: str, param: str, witness: Witness) -> None:
        key = (qualname, param)
        if key not in self._param:
            self._param[key] = witness
            self._changed = True

    def _record_hit(
        self, kind: str, func: FunctionInfo, node: ast.AST,
        detail: str, witness: Witness,
    ) -> None:
        origin = witness.origin
        key = (
            func.path,
            getattr(node, "lineno", 1),
            getattr(node, "col_offset", 0),
            kind,
            f"{origin.path}:{origin.line}:{origin.note}",
        )
        if key not in self._hits:
            self._hits[key] = TaintHit(
                kind=kind,
                func=func,
                node=node,
                detail=detail,
                flow=witness.steps(),
            )

    # -- per-function analysis ---------------------------------------------

    def _analyze(self, func: FunctionInfo) -> None:
        env: Dict[str, Witness] = {}
        for param in func.params:
            witness = self._param.get((func.qualname, param))
            if witness is not None:
                env[param] = witness.extend(
                    func.path, func.lineno,
                    f"parameter '{param}' of {func.qualname}",
                )
        statements = self._statements(func.node)
        for _ in range(_MAX_LOCAL_ROUNDS):
            before = len(env)
            for stmt in statements:
                self._exec(stmt, func, env)
            if len(env) == before:
                break

    def _statements(self, func_node) -> List[ast.AST]:
        """Statement nodes of the body, nested defs excluded, in
        source order (deterministic witness selection)."""
        out: List[ast.AST] = []
        stack = list(reversed(func_node.body))
        while stack:
            node = stack.pop()
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            if isinstance(node, ast.stmt):
                out.append(node)
            for child in reversed(list(ast.iter_child_nodes(node))):
                if isinstance(child, ast.stmt):
                    stack.append(child)
        return out

    def _exec(
        self, stmt: ast.AST, func: FunctionInfo, env: Dict[str, Witness]
    ) -> None:
        if isinstance(stmt, ast.Assign):
            witness = self._eval(stmt.value, func, env)
            for target in stmt.targets:
                self._assign(target, witness, func, env)
        elif isinstance(stmt, ast.AugAssign):
            witness = self._join(
                self._eval_load(stmt.target, func, env),
                self._eval(stmt.value, func, env),
            )
            self._assign(stmt.target, witness, func, env)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                witness = self._eval(stmt.value, func, env)
                self._assign(stmt.target, witness, func, env)
        elif isinstance(stmt, ast.Return):
            if stmt.value is None:
                return
            witness = self._eval(stmt.value, func, env)
            if witness is not None:
                returned = witness.extend(
                    func.path, stmt.lineno,
                    f"returned from {func.qualname}",
                )
                self._set_ret(func.qualname, returned)
                if _match_any(func.qualname, self.spec.sink_returns):
                    self._record_hit(
                        "return", func, stmt, func.qualname, returned
                    )
        elif isinstance(stmt, ast.For):
            witness = self._eval(stmt.iter, func, env)
            if witness is not None:
                element = witness.extend(
                    func.path, stmt.lineno, "iterated element"
                )
                self._assign(stmt.target, element, func, env)
        elif isinstance(stmt, ast.With) or isinstance(stmt, ast.AsyncWith):
            for item in stmt.items:
                witness = self._eval(item.context_expr, func, env)
                if item.optional_vars is not None:
                    self._assign(item.optional_vars, witness, func, env)
        elif isinstance(stmt, ast.Expr):
            self._eval(stmt.value, func, env)
        elif isinstance(stmt, (ast.If, ast.While)):
            # Branch conditions are control flow, not data flow — but
            # calls inside them still bind parameters and hit sinks.
            self._eval(stmt.test, func, env)
        elif isinstance(stmt, ast.Assert):
            self._eval(stmt.test, func, env)
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self._eval(stmt.exc, func, env)

    # -- assignment targets ------------------------------------------------

    def _assign(
        self,
        target: ast.AST,
        witness: Optional[Witness],
        func: FunctionInfo,
        env: Dict[str, Witness],
    ) -> None:
        if isinstance(target, ast.Name):
            if witness is not None and target.id not in env:
                env[target.id] = witness
        elif isinstance(target, ast.Attribute):
            class_name = self._receiver_class(target.value, func)
            if _match_attr(class_name, target.attr, self.spec.clean_attrs):
                return
            if witness is not None:
                stored = witness.extend(
                    func.path, target.lineno,
                    f"stored in attribute '.{target.attr}'",
                )
                self._set_attr(target.attr, stored)
                if _match_attr(
                    class_name, target.attr, self.spec.sink_attr_writes
                ):
                    self._record_hit(
                        "attr-write", func, target, target.attr, stored
                    )
        elif isinstance(target, ast.Subscript):
            # Container write: the container itself becomes tainted.
            if witness is not None:
                stored = witness.extend(
                    func.path, target.lineno, "stored into container"
                )
                self._assign(target.value, stored, func, env)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._assign(element, witness, func, env)
        elif isinstance(target, ast.Starred):
            self._assign(target.value, witness, func, env)

    def _receiver_class(
        self, receiver: ast.AST, func: FunctionInfo
    ) -> Optional[str]:
        if isinstance(receiver, ast.Name) and receiver.id == "self":
            return func.class_name
        return None

    # -- expression evaluation ---------------------------------------------

    def _join(self, *witnesses: Optional[Witness]) -> Optional[Witness]:
        for witness in witnesses:
            if witness is not None:
                return witness
        return None

    def _eval_load(
        self, node: ast.AST, func: FunctionInfo, env: Dict[str, Witness]
    ) -> Optional[Witness]:
        """Evaluate a target expression in load position (AugAssign)."""
        return self._eval(node, func, env)

    def _eval(
        self, node: ast.AST, func: FunctionInfo, env: Dict[str, Witness]
    ) -> Optional[Witness]:
        if isinstance(node, ast.Name):
            return env.get(node.id)
        if isinstance(node, ast.Attribute):
            return self._eval_attribute(node, func, env)
        if isinstance(node, ast.Call):
            return self._eval_call(node, func, env)
        if isinstance(node, ast.BinOp):
            return self._join(
                self._eval(node.left, func, env),
                self._eval(node.right, func, env),
            )
        if isinstance(node, ast.BoolOp):
            return self._join(
                *(self._eval(v, func, env) for v in node.values)
            )
        if isinstance(node, ast.UnaryOp):
            return self._eval(node.operand, func, env)
        if isinstance(node, ast.Compare):
            return self._join(
                self._eval(node.left, func, env),
                *(self._eval(c, func, env) for c in node.comparators),
            )
        if isinstance(node, ast.IfExp):
            # Explicit flows only: the chosen value's taint matters,
            # the branch condition's does not (control dependence).
            self._eval(node.test, func, env)
            return self._join(
                self._eval(node.body, func, env),
                self._eval(node.orelse, func, env),
            )
        if isinstance(node, ast.Subscript):
            return self._join(
                self._eval(node.value, func, env),
                self._eval(node.slice, func, env),
            )
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return self._join(
                *(self._eval(e, func, env) for e in node.elts)
            )
        if isinstance(node, ast.Dict):
            parts = [
                self._eval(k, func, env)
                for k in node.keys
                if k is not None
            ]
            parts.extend(self._eval(v, func, env) for v in node.values)
            return self._join(*parts)
        if isinstance(node, ast.Starred):
            return self._eval(node.value, func, env)
        if isinstance(node, ast.JoinedStr):
            return self._join(
                *(self._eval(v, func, env) for v in node.values)
            )
        if isinstance(node, ast.FormattedValue):
            return self._eval(node.value, func, env)
        if isinstance(node, ast.NamedExpr):
            witness = self._eval(node.value, func, env)
            self._assign(node.target, witness, func, env)
            return witness
        if isinstance(
            node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
        ):
            parts: List[Optional[Witness]] = [
                self._eval(gen.iter, func, env) for gen in node.generators
            ]
            return self._join(*parts)
        if isinstance(node, ast.Slice):
            return self._join(
                *(
                    self._eval(part, func, env)
                    for part in (node.lower, node.upper, node.step)
                    if part is not None
                )
            )
        if isinstance(node, ast.Await):
            return self._eval(node.value, func, env)
        return None

    def _eval_attribute(
        self, node: ast.Attribute, func: FunctionInfo, env: Dict[str, Witness]
    ) -> Optional[Witness]:
        class_name = self._receiver_class(node.value, func)
        if _match_attr(class_name, node.attr, self.spec.clean_attrs):
            return None
        if _match_attr(class_name, node.attr, self.spec.source_attrs):
            owner = class_name or "?"
            return Witness(
                func.path, node.lineno,
                f"read of demand-derived '{owner}.{node.attr}'"
                if class_name
                else f"read of demand-derived '.{node.attr}'",
            )
        known = self._attr.get(node.attr)
        if known is not None:
            return known.extend(
                func.path, node.lineno,
                f"read of tainted attribute '.{node.attr}'",
            )
        receiver = self._eval(node.value, func, env)
        if receiver is not None:
            return receiver.extend(
                func.path, node.lineno,
                f"attribute '.{node.attr}' of tainted object",
            )
        return None

    def _eval_call(
        self, node: ast.Call, func: FunctionInfo, env: Dict[str, Witness]
    ) -> Optional[Witness]:
        dotted = self.callgraph.dotted_text(func.path, node.func)
        targets = self.callgraph.resolve_call(func, node)
        sanitized = self._call_is_sanitized(dotted, targets)
        arg_witnesses: List[Tuple[Optional[str], Optional[Witness]]] = []
        for arg in node.args:
            if isinstance(arg, ast.Starred):
                arg_witnesses.append(
                    (None, self._eval(arg.value, func, env))
                )
            else:
                arg_witnesses.append((None, self._eval(arg, func, env)))
        for keyword in node.keywords:
            arg_witnesses.append(
                (keyword.arg, self._eval(keyword.value, func, env))
            )
        if sanitized:
            # Sanitizer precedence: a trusted interface's result is
            # clean and its arguments are sanctioned — no propagation,
            # no sink checks inside the call.
            return None
        if dotted and _match_any(dotted, self.spec.source_calls):
            return Witness(
                func.path, node.lineno, f"call to source '{dotted}'"
            )
        if any(_match_any(t, self.spec.source_calls) for t in targets):
            return Witness(
                func.path, node.lineno,
                f"call to source '{targets[0]}'",
            )
        # Sink: tainted argument into a watched callee parameter.
        self._check_call_arg_sinks(node, dotted, targets, arg_witnesses, func)
        # Propagate arguments into resolved callees' parameters.
        result: Optional[Witness] = None
        for target in targets:
            info = self.index.functions.get(target)
            if info is None or self._is_sanitizer_fn(info):
                continue
            self._bind_params(node, info, arg_witnesses, func)
            returned = self._ret.get(target)
            if returned is not None and result is None:
                result = returned.extend(
                    func.path, node.lineno,
                    f"result of call to {target}",
                )
        if targets:
            return result
        # Unknown callee (builtin/stdlib): conservatively propagate
        # taint from any argument — len(tainted), max(c, tainted)...
        tainted_arg = self._join(*(w for _, w in arg_witnesses))
        if tainted_arg is not None:
            label = dotted or "<call>"
            return tainted_arg.extend(
                func.path, node.lineno,
                f"through call to '{label}'",
            )
        # A method call on a tainted receiver yields tainted data
        # (queue.popleft() on a tainted queue).
        if isinstance(node.func, ast.Attribute):
            receiver = self._eval(node.func.value, func, env)
            if receiver is not None:
                return receiver.extend(
                    func.path, node.lineno,
                    f"result of '.{node.func.attr}()' on tainted object",
                )
        return None

    def _bind_params(
        self,
        node: ast.Call,
        info: FunctionInfo,
        arg_witnesses: List[Tuple[Optional[str], Optional[Witness]]],
        func: FunctionInfo,
    ) -> None:
        params = list(info.params)
        offset = 1 if params and params[0] == "self" else 0
        position = 0
        for name, witness in arg_witnesses:
            if witness is None:
                if name is None:
                    position += 1
                continue
            if name is not None:
                if name in params:
                    self._set_param(
                        info.qualname, name,
                        witness.extend(
                            func.path, node.lineno,
                            f"passed to {info.qualname}({name}=...)",
                        ),
                    )
                continue
            index = position + offset
            position += 1
            if index < len(params):
                param = params[index]
                self._set_param(
                    info.qualname, param,
                    witness.extend(
                        func.path, node.lineno,
                        f"passed to {info.qualname} parameter '{param}'",
                    ),
                )

    def _check_call_arg_sinks(
        self,
        node: ast.Call,
        dotted: str,
        targets: Tuple[str, ...],
        arg_witnesses: List[Tuple[Optional[str], Optional[Witness]]],
        func: FunctionInfo,
    ) -> None:
        if not self.spec.sink_call_args:
            return
        for pattern in self.spec.sink_call_args:
            callee_pat, _, param_pat = pattern.rpartition(":")
            if not callee_pat:
                callee_pat, param_pat = pattern, "*"
            names = [dotted] if dotted else []
            names.extend(targets)
            if not any(fnmatchcase(n, callee_pat) for n in names):
                continue
            # Parameter names for positional matching, when resolvable.
            params: List[str] = []
            for target in targets:
                info = self.index.functions.get(target)
                if info is not None:
                    params = list(info.params)
                    if params and params[0] == "self":
                        params = params[1:]
                    break
            position = 0
            for name, witness in arg_witnesses:
                if name is None:
                    arg_name = (
                        params[position] if position < len(params) else
                        f"arg{position}"
                    )
                    position += 1
                else:
                    arg_name = name
                if witness is None:
                    continue
                if fnmatchcase(arg_name, param_pat):
                    self._record_hit(
                        "call-arg", func, node,
                        f"{dotted or targets[0]}({arg_name})",
                        witness.extend(
                            func.path, node.lineno,
                            f"tainted argument '{arg_name}' to "
                            f"'{dotted or targets[0]}'",
                        ),
                    )


def run_taint(
    project: FlowProject, spec: TaintSpec
) -> List[TaintHit]:
    """Convenience wrapper: build the engine and run to fixed point."""
    return TaintEngine(project, spec).run()
