"""The lint driver: walk files, run checkers, filter, render, exit.

Every :class:`~repro.lint.registry.Checker` sees one parsed module at
a time; a finding on a line a pragma names is dropped.

Public surface:

* :func:`build_arg_parser` / :func:`run` / :func:`main` — the one
  front end: ``python -m repro.lint`` parses with the parser and
  ``repro lint`` mounts the same parser as its subcommand, so both
  accept the same flags and reach :func:`run` with the same namespace.
* :func:`lint_paths` / :func:`lint_source` — library API the test
  suite drives directly.

Checker ids are checked where they are named: an unknown ``--select``
id is a usage error, an unknown id in a pragma an RL000 finding.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import sys
from typing import Iterable, List, Optional, Sequence

from repro.lint.config import LintConfig, find_project_root
from repro.lint.findings import Finding, LintResult, Severity, sort_findings
from repro.lint.pragmas import ALL, is_suppressed, iter_pragmas, parse_pragmas
from repro.lint.registry import (
    Checker,
    ModuleContext,
    all_checkers,
    checker_ids,
)


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


def select_checkers(select: Optional[Iterable[str]] = None) -> List[Checker]:
    """The registered checkers, narrowed to the ``select`` ids if given.

    Raises :class:`ValueError` for an id no checker has, so a selection
    naming a deleted checker fails instead of running nothing.
    """
    if select is None:
        return all_checkers()
    wanted = {s.strip().upper() for s in select if s.strip()}
    known = checker_ids()
    unknown = sorted(wanted.difference(known))
    if unknown:
        raise ValueError(
            f"unknown checker id(s): {', '.join(unknown)} "
            f"(known: {', '.join(known)})"
        )
    return [c for c in all_checkers() if c.id in wanted]


def _unknown_pragma_ids(source: str, rel_path: str) -> List[Finding]:
    """RL000 for every pragma id that names no checker."""
    known = set(checker_ids())
    known.add(ALL)
    return [
        Finding(
            checker_id="RL000",
            severity=Severity.ERROR,
            path=rel_path,
            line=line,
            column=column,
            message=f"repro-lint pragma names unknown checker {cid}",
            key="unknown-pragma-id",
        )
        for line, column, _target, ids in iter_pragmas(source)
        for cid in sorted(ids - known)
    ]


def lint_source(
    source: str,
    rel_path: str,
    config: Optional[LintConfig] = None,
    select: Optional[Iterable[str]] = None,
) -> List[Finding]:
    """Lint one module given as text (the unit-test entry point)."""
    findings, _ = _lint_module(
        source, rel_path, config or LintConfig(), select_checkers(select)
    )
    return findings


def _lint_module(
    source: str,
    rel_path: str,
    config: LintConfig,
    checkers: Sequence[Checker],
):
    """One module; returns (findings, pragma_suppressed_count)."""
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
    pragma_map = parse_pragmas(source)
    findings: List[Finding] = []
    for checker in checkers:
        module = ModuleContext(
            path=rel_path,
            tree=tree,
            source=source,
            options=config.options_for(checker.id),
        )
        findings.extend(checker.check_module(module))
    kept = [
        f for f in findings
        if not is_suppressed(pragma_map, f.line, f.checker_id)
    ]
    return _unknown_pragma_ids(source, rel_path) + kept, len(findings) - len(kept)


def lint_paths(
    paths: Sequence[str],
    config: LintConfig,
    select: Optional[Iterable[str]] = None,
) -> LintResult:
    """Lint files/directories."""
    checkers = select_checkers(select)
    result = LintResult()
    for file_path in iter_python_files(paths):
        with open(file_path, "r", encoding="utf-8") as fh:
            source = fh.read()
        findings, pragma_hits = _lint_module(
            source, _rel_path(file_path, config.project_root), config,
            checkers,
        )
        result.files_checked += 1
        result.pragma_suppressed += pragma_hits
        result.findings.extend(findings)
    result.findings = sort_findings(result.findings)
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


def _select_arg(text: str) -> Optional[List[str]]:
    """``--select`` value: comma-separated ids, each one a checker's."""
    ids = [s for s in text.split(",") if s.strip()]
    try:
        select_checkers(ids)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return ids or None


def build_arg_parser(prog: str = "repro.lint") -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog,
        description=(
            "repro-lint: AST checks for what the simulator's tests "
            "cannot see (no bare print in library code, no silently "
            "swallowed exceptions)"
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
        "--select", metavar="IDS", type=_select_arg,
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
            print(
                f"{checker.id}  {checker.name}  {checker.description}",
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
    result = lint_paths(
        args.paths, LintConfig(project_root=root), select=args.select
    )
    if args.format == "json":
        render_json(result, out)
    else:
        render_text(result, out)
    return result.exit_code


def main(argv: Optional[Sequence[str]] = None) -> int:
    return run(build_arg_parser().parse_args(argv))
