"""The lint driver: walk files, run checkers, filter, render, exit.

Two passes per run:

1. **per-module** — every :class:`~repro.lint.registry.Checker` sees
   one parsed module at a time (RL001–RL006);
2. **whole-program** — every :class:`~repro.lint.registry.FlowChecker`
   sees the full :class:`~repro.lint.flow.FlowProject` once
   (RL007–RL009), after all files are read, so findings can follow
   flows across modules.

Public surface:

* :func:`build_arg_parser` / :func:`run` / :func:`main` — the one
  front end: ``python -m repro.lint`` parses with the parser and
  ``repro lint`` mounts the same parser as its subcommand, so both
  accept the same flags and reach :func:`run` with the same namespace.
* :func:`lint_paths` / :func:`lint_source` — library API the test
  suite drives directly.  ``lint_source`` runs the flow pass over the
  single module, so interprocedural checkers are unit-testable one
  source string at a time.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import sys
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.lint.config import LintConfig, find_project_root
from repro.lint.findings import Finding, LintResult, Severity, sort_findings
from repro.lint.pragmas import is_suppressed, parse_pragmas
from repro.lint.registry import FlowChecker, ModuleContext, all_checkers


def iter_python_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted list of .py files."""
    found: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            found.append(path)
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(
                d for d in dirnames if d not in ("__pycache__", ".git")
            )
            for name in sorted(filenames):
                if name.endswith(".py"):
                    found.append(os.path.join(dirpath, name))
    return sorted(set(found))


def _rel_path(path: str, root: str) -> str:
    rel = os.path.relpath(os.path.abspath(path), os.path.abspath(root))
    return rel.replace(os.sep, "/")


def _split_checkers(select: Optional[Iterable[str]]):
    """(per-module checkers, flow checkers) honouring ``--select``."""
    selected = {s.upper() for s in select} if select else None
    local, flow = [], []
    for checker in all_checkers():
        if selected is not None and checker.id not in selected:
            continue
        (flow if isinstance(checker, FlowChecker) else local).append(checker)
    return local, flow


def lint_source(
    source: str,
    rel_path: str,
    config: Optional[LintConfig] = None,
    select: Optional[Iterable[str]] = None,
) -> List[Finding]:
    """Lint one module given as text (the unit-test entry point).

    Runs both passes: flow checkers see a one-module project, which is
    exactly what the fixture tests feed them.
    """
    config = config or LintConfig()
    findings, _ = _lint_module(source, rel_path, config, select)
    flow_findings, _ = _run_flow_pass(
        [(rel_path, source)], config, select
    )
    return findings + flow_findings


def _lint_module(
    source: str,
    rel_path: str,
    config: Optional[LintConfig] = None,
    select: Optional[Iterable[str]] = None,
):
    """Per-module pass; returns (findings, pragma_suppressed_count)."""
    config = config or LintConfig()
    try:
        tree = ast.parse(source, filename=rel_path)
    except SyntaxError as exc:
        return [
            Finding(
                checker_id="RL000",
                severity=Severity.ERROR,
                path=rel_path,
                line=exc.lineno or 1,
                column=(exc.offset or 0) + 1,
                message=f"syntax error: {exc.msg}",
                key="syntax-error",
            )
        ], 0
    disabled_per_path = set(config.disabled_for_path(rel_path))
    pragma_map = parse_pragmas(source)
    local, _flow = _split_checkers(select)
    findings: List[Finding] = []
    for checker in local:
        if checker.id in disabled_per_path:
            continue
        module = ModuleContext(
            path=rel_path,
            tree=tree,
            source=source,
            options=config.options_for(checker.id),
            severity=config.severity_for(checker.id, checker.default_severity),
        )
        findings.extend(checker.check_module(module))
    kept = [
        f for f in findings
        if not is_suppressed(pragma_map, f.line, f.checker_id)
    ]
    return kept, len(findings) - len(kept)


def _run_flow_pass(
    sources: Sequence[Tuple[str, str]],
    config: LintConfig,
    select: Optional[Iterable[str]] = None,
):
    """Whole-program pass; returns (findings, pragma_suppressed_count).

    Findings are filtered through the same pragma and per-path-disable
    machinery as the per-module pass, keyed by each finding's own
    path.
    """
    _local, flow = _split_checkers(select)
    if not flow:
        return [], 0
    from repro.lint.flow import FlowProject

    project = FlowProject.from_sources(sources, config=config)
    raw: List[Finding] = []
    for checker in flow:
        raw.extend(checker.check_project(project))
    pragma_maps = {
        path: parse_pragmas(source) for path, source in sources
    }
    kept: List[Finding] = []
    suppressed = 0
    for finding in raw:
        if finding.checker_id in set(config.disabled_for_path(finding.path)):
            continue
        if is_suppressed(
            pragma_maps.get(finding.path, {}), finding.line,
            finding.checker_id,
        ):
            suppressed += 1
        else:
            kept.append(finding)
    return kept, suppressed


def lint_paths(
    paths: Sequence[str],
    config: LintConfig,
    select: Optional[Iterable[str]] = None,
) -> LintResult:
    """Lint files/directories: the per-module pass, then the flow pass."""
    result = LintResult()
    sources: List[Tuple[str, str]] = []
    for file_path in iter_python_files(paths):
        with open(file_path, "r", encoding="utf-8") as fh:
            sources.append((_rel_path(file_path, config.project_root),
                            fh.read()))
    result.files_checked = len(sources)
    for rel, source in sources:
        findings, pragma_hits = _lint_module(source, rel, config, select)
        result.pragma_suppressed += pragma_hits
        result.findings.extend(findings)
    findings, pragma_hits = _run_flow_pass(sources, config, select)
    result.pragma_suppressed += pragma_hits
    result.findings = sort_findings(result.findings + findings)
    return result


# -- rendering -------------------------------------------------------------


def render_text(result: LintResult, out=None) -> None:
    out = out or sys.stdout
    for finding in result.findings:
        print(finding.as_text(), file=out)
    summary = (
        f"{len(result.findings)} finding(s) in {result.files_checked} file(s)"
    )
    if result.pragma_suppressed:
        summary += f" ({result.pragma_suppressed} pragma-suppressed)"
    print(summary, file=out)


def render_json(result: LintResult, out=None) -> None:
    out = out or sys.stdout
    payload = {
        "findings": [f.as_dict() for f in result.findings],
        "files_checked": result.files_checked,
        "pragma_suppressed": result.pragma_suppressed,
        "exit_code": result.exit_code,
    }
    json.dump(payload, out, indent=2, sort_keys=True)
    out.write("\n")


# -- CLI -------------------------------------------------------------------


def build_arg_parser(prog: str = "repro.lint") -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog,
        description=(
            "repro-lint: AST-based invariant checks for simulator "
            "soundness (determinism, integer cycle math, the next-event "
            "contract, shared-state hazards, and whole-program flow "
            "checks for secret-independence)"
        ),
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format",
    )
    parser.add_argument(
        "--select", metavar="IDS",
        help="comma-separated checker ids to run (default: all)",
    )
    parser.add_argument(
        "--list-checkers", action="store_true",
        help="print the checker catalog and exit",
    )
    return parser


def run(args: argparse.Namespace, out=None) -> int:
    """Execute one parsed command line; returns the process exit code.

    ``args`` comes from :func:`build_arg_parser` — directly
    (``python -m repro.lint``) or mounted as the ``repro lint``
    subcommand — so both front ends behave identically.
    """
    out = out or sys.stdout
    if args.list_checkers:
        for checker in all_checkers():
            kind = "flow" if isinstance(checker, FlowChecker) else "module"
            print(
                f"{checker.id}  {checker.name}  [{checker.default_severity}]"
                f"  ({kind})  {checker.description}",
                file=out,
            )
        return 0
    missing = [p for p in args.paths if not os.path.exists(p)]
    if missing:
        print(f"error: no such path: {', '.join(missing)}", file=sys.stderr)
        return 2
    anchor = args.paths[0] if args.paths else "."
    root = find_project_root(anchor if os.path.isdir(anchor)
                             else os.path.dirname(anchor) or ".")
    selected = [s for s in (args.select or "").split(",") if s.strip()] or None
    result = lint_paths(
        args.paths, LintConfig(project_root=root), select=selected
    )
    if args.format == "json":
        render_json(result, out)
    else:
        render_text(result, out)
    return result.exit_code


def main(argv: Optional[Sequence[str]] = None) -> int:
    return run(build_arg_parser().parse_args(argv))
