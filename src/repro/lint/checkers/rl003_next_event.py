"""RL003: every ``tick()``-able component must publish its next event.

The columnar engine (DESIGN.md §4) may only jump the clock when it
knows a sound lower bound on each component's next state change.  A
class that defines ``tick()`` but not ``next_event_cycle()`` is a trap:
under ``engine="cycle"`` it works, under ``engine="columnar"`` the
engine cannot see its pending work and silently freezes it across a
skip — precisely the divergence the bit-identical guarantee forbids.

Any class in a simulated package that defines the tick method must
therefore either define ``next_event_cycle`` (directly, or via a base
class *in the same module* — cross-module inheritance is out of reach
for a single-file AST pass), or carry a justified RL003 disable
pragma (:mod:`repro.lint.pragmas`) on its ``class`` line.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Set

from repro.lint.findings import Finding
from repro.lint.registry import Checker, ModuleContext, register

_DEFAULT_PACKAGES = [
    "repro/dram",
    "repro/memctrl",
    "repro/core",
    "repro/noc",
    "repro/sim",
    "repro/cpu",
    "repro/ga",
]


def _methods_of(cls: ast.ClassDef) -> Set[str]:
    return {
        stmt.name
        for stmt in cls.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


@register
class NextEventContractChecker(Checker):
    id = "RL003"
    name = "next-event-contract"
    description = (
        "classes defining tick() in simulated packages must also define "
        "next_event_cycle() or be explicitly exempted"
    )

    def check_module(self, module: ModuleContext) -> Iterable[Finding]:
        packages = module.options.get("packages", _DEFAULT_PACKAGES)
        if not self.path_in_packages(module.path, packages):
            return []
        tick_name = module.options.get("tick-method", "tick")
        required = module.options.get("required-method", "next_event_cycle")
        exempt = {name for name in module.options.get("exempt", [])}

        classes: Dict[str, ast.ClassDef] = {
            node.name: node
            for node in ast.walk(module.tree)
            if isinstance(node, ast.ClassDef)
        }
        satisfied: Set[str] = set()
        # Two passes so a base class later in the file still counts.
        for name, cls in classes.items():
            if required in _methods_of(cls):
                satisfied.add(name)
        changed = True
        while changed:
            changed = False
            for name, cls in classes.items():
                if name in satisfied:
                    continue
                for base in cls.bases:
                    base_name = (
                        base.id if isinstance(base, ast.Name)
                        else base.attr if isinstance(base, ast.Attribute)
                        else ""
                    )
                    if base_name in satisfied:
                        satisfied.add(name)
                        changed = True
                        break

        findings: List[Finding] = []
        for name, cls in classes.items():
            if tick_name not in _methods_of(cls):
                continue
            if name in satisfied or name in exempt:
                continue
            findings.append(
                module.finding(
                    self.id,
                    cls,
                    f"class '{name}' defines {tick_name}() but not "
                    f"{required}(): the next-event engine would freeze it "
                    "across clock skips",
                    hint=(
                        f"implement {required}() returning a sound lower "
                        "bound (or None when idle), or suppress the class "
                        "line with a justified disable=RL003 pragma"
                    ),
                    key=name,
                )
            )
        return findings
