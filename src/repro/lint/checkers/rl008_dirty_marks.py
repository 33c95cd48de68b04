"""RL008: a mutation behind a cache must be paired with its invalidation.

A cache in the simulator is only as good as the marks that invalidate
it, and each is enrolled here as a *ledger*.  There is one: the
columnar engine (``repro/sim/columnar.py``) only re-polls
``next_event_cycle`` for horizon rows whose ``dirty`` flag is set; a
station mutation that is not paired with a dirty-mark leaves a stale
cached horizon, and the engine silently schedules off it — the
bit-identity guarantee against ``engine="cycle"`` breaks in a way no
local (per-function) check can see when the mutation happens through
a helper.  (The DRAM device keeps no cache: its readiness is read
live from the registers, so there is nothing there to go stale.)

The rule is function-granularity and interprocedural: a function in a
ledger's scope that calls one of its *mutators* (``*.tick``,
``*.enqueue``, ``*._deliver``, the engine's bound-method tick caches,
...) is **paired** when a *mark* appears in the function itself, in
any transitive callee, or in a direct caller (the caller owning the
mark for a mutation helper is the ``_step``/``_refresh_horizons``
split the engine already uses).  A mark is an assignment of a non-``False``
value to a mark target (``dirty[i] = True``, ``self._dirty[j] =
True``) or a call to a mark helper (``*mark_all_dirty*``); clearing a
flag (``dirty[i] = False``) never counts.

Scopes, mutator patterns and mark patterns are the ``_LEDGERS`` below;
a new cache enrols by adding one.
"""

from __future__ import annotations

import ast
from fnmatch import fnmatch, fnmatchcase
from typing import Dict, Iterable, List, NamedTuple, Sequence

from repro.lint.findings import Finding, FlowStep
from repro.lint.registry import FlowChecker, register


class _Ledger(NamedTuple):
    """One cache: where it can be made stale, by what, and its marks."""

    mutation: str  # what a mutator call is, in a finding's words
    mark: str  # what the paired invalidation is called
    paths: Sequence[str]
    mutator_calls: Sequence[str]
    mark_targets: Sequence[str]
    mark_calls: Sequence[str]
    hint: str


_LEDGERS = [
    _Ledger(
        mutation="station mutation",
        mark="dirty-mark",
        paths=["repro/sim/columnar.py"],
        mutator_calls=[
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
        ],
        mark_targets=["*dirty*"],
        mark_calls=["*mark_all_dirty*"],
        hint=(
            "set the station's dirty flag (or call the mark-all helper) "
            "in this function, a callee, or the direct caller, so the "
            "cached horizon is re-polled after the mutation"
        ),
    ),
]


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
        "every mutation behind a cache (the columnar horizons) must "
        "pair with its invalidating mark (intra- or interprocedurally)"
    )

    def check_project(self, project) -> Iterable[Finding]:
        findings: List[Finding] = []
        for ledger in _LEDGERS:
            findings.extend(self._check_ledger(project, ledger))
        return findings

    def _check_ledger(self, project, ledger: _Ledger) -> List[Finding]:
        from repro.lint.flow.callgraph import iter_body_nodes

        index = project.index
        callgraph = project.callgraph

        # Which functions contain a mark (computed once, shared by
        # every pairing query).
        has_mark: Dict[str, bool] = {}
        for qual, info in index.functions.items():
            has_mark[qual] = self._contains_mark(
                info.node, ledger.mark_targets, ledger.mark_calls,
                iter_body_nodes,
            )

        findings: List[Finding] = []
        for qual in sorted(index.functions):
            info = index.functions[qual]
            if not _path_in_scope(info.path, ledger.paths):
                continue
            sites = [
                (node, dotted)
                for node, dotted, _targets in callgraph.call_sites.get(
                    qual, []
                )
                if dotted
                and any(fnmatchcase(dotted, m) for m in ledger.mutator_calls)
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
                        f"{ledger.mutation} '{dotted}' in {qual} has no "
                        f"paired {ledger.mark} (none in the function, "
                        "its callees, or its direct callers)",
                        hint=ledger.hint,
                        key=f"{qual}.{dotted}",
                        flow=(
                            FlowStep(
                                info.path, node.lineno,
                                f"mutation via '{dotted}()'",
                            ),
                            FlowStep(
                                info.path, info.lineno,
                                f"{qual}: no {ledger.mark} reachable",
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
