"""The repo must lint clean under its own policy — and stay that way.

The shipped checkers (no bare print in library code, no silently
swallowed exceptions) pass over every module in ``src/`` with nothing
but reviewed inline pragmas absorbing findings, and every pragma
names a checker that exists.  A regression here means a new
violation, not a lint bug — fix the code or add a *justified* pragma,
in that order.
"""

import io
import pathlib

from repro.lint import LintConfig, lint_paths
from repro.lint.runner import build_arg_parser, run

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_src_lints_clean_with_repo_policy():
    result = lint_paths(
        [str(REPO_ROOT / "src")], LintConfig(project_root=str(REPO_ROOT))
    )
    assert result.findings == [], "\n".join(
        f.as_text() for f in result.findings
    )
    assert result.files_checked > 60  # the whole tree, not a subset
    assert result.exit_code == 0


def test_module_entry_point_is_clean_end_to_end():
    out = io.StringIO()
    args = build_arg_parser().parse_args([str(REPO_ROOT / "src")])
    code = run(args, out=out)
    assert code == 0, out.getvalue()
    assert "0 finding(s)" in out.getvalue()
