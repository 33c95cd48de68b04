"""RL008: columnar station mutations must be paired with dirty-marks.

The columnar engine (``repro/sim/columnar.py``) only re-polls
``next_event_cycle`` for horizon rows whose ``dirty`` flag is set; a
station mutation that is not paired with a dirty-mark leaves a stale
cached horizon, and the engine silently schedules off it — the
bit-identity guarantee against ``engine="cycle"`` breaks in a
way no local (per-function) check can see when the mutation happens
through a helper.

The rule is function-granularity and interprocedural: a function in
the checked scope that calls a *mutator* (``*.tick``, ``*.enqueue``,
``*.push_response``, ``*._deliver``, the engine's bound-method tick
caches, ...) is **paired** when a dirty-mark appears in the function
itself, in any transitive callee, or in a direct caller (the caller
owning the mark for a mutation helper is the
``_step``/``_refresh_horizons`` split the engine already uses).  A
*dirty-mark* is an assignment of a non-``False`` value to a
``*dirty*`` target (``dirty[i] = True``, ``self._dirty[j] = True``)
or a call to a ``*mark_all_dirty*`` helper; clearing a flag
(``dirty[i] = False``) never counts.

Scope, mutator patterns, and mark patterns are the module constants
below; a future engine enrols its own ledger by extending them.
"""

from __future__ import annotations

import ast
from fnmatch import fnmatch, fnmatchcase
from typing import Dict, Iterable, List

from repro.lint.findings import Finding, FlowStep
from repro.lint.registry import FlowChecker, register

_PATHS = ["repro/sim/columnar.py"]

_MUTATOR_CALLS = [
    "*.tick",
    "*.enqueue",
    "*.push_response",
    "*.push_request",
    "*.pop_responses",
    "*.pop_arrivals",
    "*._deliver",
    "*._core_tick",
    "*._path_tick",
    "*._resp_tick",
]

_MARK_TARGETS = ["*dirty*"]
_MARK_CALLS = ["*mark_all_dirty*"]

_HINT = (
    "set the station's dirty flag (or call the mark-all helper) in "
    "this function, a callee, or the direct caller, so the cached "
    "horizon is re-polled after the mutation"
)


def _dotted(expr: ast.AST) -> str:
    from repro.lint.flow.callgraph import dotted_parts

    parts = dotted_parts(expr)
    return ".".join(parts) if parts else ""


def _is_mark_value(value: ast.AST) -> bool:
    """Anything but a literal ``False`` counts as setting the flag."""
    return not (isinstance(value, ast.Constant) and value.value is False)


def _path_in_scope(path: str, patterns: Iterable[str]) -> bool:
    for pattern in patterns:
        pat = pattern.strip("/")
        if fnmatch(path, pat) or fnmatch(path, "*/" + pat):
            return True
    return False


@register
class DirtyMarkChecker(FlowChecker):
    id = "RL008"
    name = "dirty-mark-completeness"
    description = (
        "every columnar station mutation must pair with a dirty-mark "
        "(intra- or interprocedurally)"
    )

    def check_project(self, project) -> Iterable[Finding]:
        from repro.lint.flow.callgraph import iter_body_nodes

        opts = project.options_for(self.id)
        scope = opts.get("paths", _PATHS)
        mutators = opts.get("mutator-calls", _MUTATOR_CALLS)
        mark_targets = opts.get("mark-targets", _MARK_TARGETS)
        mark_calls = opts.get("mark-calls", _MARK_CALLS)

        index = project.index
        callgraph = project.callgraph

        # Which functions contain a dirty-mark (computed once, shared
        # by every pairing query).
        has_mark: Dict[str, bool] = {}
        for qual, info in index.functions.items():
            has_mark[qual] = self._contains_mark(
                info.node, mark_targets, mark_calls, iter_body_nodes
            )

        findings: List[Finding] = []
        for qual in sorted(index.functions):
            info = index.functions[qual]
            if not _path_in_scope(info.path, scope):
                continue
            sites = [
                (node, dotted)
                for node, dotted, _targets in callgraph.call_sites.get(
                    qual, []
                )
                if dotted and any(fnmatchcase(dotted, m) for m in mutators)
            ]
            if not sites:
                continue
            if has_mark.get(qual):
                continue
            if any(
                has_mark.get(callee)
                for callee in callgraph.transitive_callees(qual)
            ):
                continue
            if any(
                has_mark.get(caller)
                for caller in callgraph.callers.get(qual, ())
            ):
                continue
            for node, dotted in sites:
                findings.append(
                    project.finding(
                        self.id,
                        info.path,
                        node,
                        f"station mutation '{dotted}' in {qual} has no "
                        "paired dirty-mark (none in the function, its "
                        "callees, or its direct callers)",
                        hint=_HINT,
                        key=f"{qual}.{dotted}",
                        flow=(
                            FlowStep(
                                info.path, node.lineno,
                                f"mutation via '{dotted}()'",
                            ),
                            FlowStep(
                                info.path, info.lineno,
                                f"{qual} re-polls no horizon: no "
                                "dirty-mark reachable",
                            ),
                        ),
                        default_severity=self.default_severity,
                    )
                )
        return findings

    @staticmethod
    def _contains_mark(
        func_node, mark_targets, mark_calls, iter_body_nodes
    ) -> bool:
        for node in iter_body_nodes(func_node):
            if isinstance(node, ast.Assign):
                if _is_mark_value(node.value) and any(
                    fnmatchcase(_dotted(t), pat)
                    for t in node.targets
                    for pat in mark_targets
                    if _dotted(t)
                ):
                    return True
            elif isinstance(node, ast.AugAssign):
                target = _dotted(node.target)
                if target and any(
                    fnmatchcase(target, pat) for pat in mark_targets
                ):
                    return True
            elif isinstance(node, ast.Call):
                dotted = _dotted(node.func)
                if dotted and any(
                    fnmatchcase(dotted, pat) for pat in mark_calls
                ):
                    return True
        return False
