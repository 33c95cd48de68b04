"""Fixture-driven tests for the repro.lint checkers (RL005, RL006).

Each checker gets at least one true-positive and one clean fixture,
plus pragma-suppression coverage, the checker-options seam and the
mutation of the real tree that is the checker's reason to exist.
"""

import io
import json
import pathlib
import textwrap

import pytest

from repro.lint import LintConfig, lint_source
from repro.lint.runner import build_arg_parser, main, run

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

CORE_PATH = "src/repro/core/mod.py"


def findings_for(code, path=CORE_PATH, select=None, config=None):
    return lint_source(textwrap.dedent(code), path, config, select=select)


def ids_of(findings):
    return [f.checker_id for f in findings]


# -- RL005 bare print ------------------------------------------------------


class TestRL005:
    def test_bare_print_flagged(self):
        findings = findings_for(
            """
            def debug(state):
                print("queue:", state.queue)
            """,
            select=["RL005"],
        )
        assert ids_of(findings) == ["RL005"]
        assert "print" in findings[0].message

    def test_explicit_file_clean(self):
        findings = findings_for(
            """
            import sys

            def report(text, out=None):
                print(text, file=out or sys.stderr)
            """,
            select=["RL005"],
        )
        assert findings == []

    def test_main_module_exempt(self):
        findings = findings_for(
            """
            print("usage: ...")
            """,
            path="src/repro/lint/__main__.py",
            select=["RL005"],
        )
        assert findings == []

    def test_cli_allow_path_default(self):
        findings = findings_for(
            """
            print("table")
            """,
            path="src/repro/cli.py",
            select=["RL005"],
        )
        assert findings == []

    def test_allow_paths_configurable(self):
        config = LintConfig(
            checker_options={"rl005": {"allow-paths": ["repro/core/mod.py"]}}
        )
        findings = findings_for(
            """
            print("ok here")
            """,
            select=["RL005"],
            config=config,
        )
        assert findings == []

    def test_shadowed_print_not_flagged(self):
        # A local callable named print is not the builtin side effect
        # the rule targets — only bare Name calls without file= count,
        # and methods like logger.print are attribute calls anyway.
        findings = findings_for(
            """
            class Sink:
                def print(self, text):
                    return text

            def use(sink):
                return sink.print("x")
            """,
            select=["RL005"],
        )
        assert findings == []


# -- RL006 swallowed exceptions --------------------------------------------


class TestRL006:
    def test_bare_except_flagged(self):
        findings = findings_for(
            """
            def load(path):
                try:
                    return open(path).read()
                except:
                    return None
            """,
            select=["RL006"],
        )
        assert ids_of(findings) == ["RL006"]
        assert "bare except" in findings[0].message

    def test_bare_except_with_reraise_clean(self):
        findings = findings_for(
            """
            def load(path):
                try:
                    return open(path).read()
                except:
                    cleanup()
                    raise
            """,
            select=["RL006"],
        )
        assert findings == []

    def test_catch_all_pass_flagged(self):
        findings = findings_for(
            """
            def tick(component):
                try:
                    component.advance()
                except Exception:
                    pass
            """,
            select=["RL006"],
        )
        assert ids_of(findings) == ["RL006"]

    def test_base_exception_ellipsis_flagged(self):
        findings = findings_for(
            """
            def tick(component):
                try:
                    component.advance()
                except BaseException:
                    ...
            """,
            select=["RL006"],
        )
        assert ids_of(findings) == ["RL006"]

    def test_catch_all_in_tuple_flagged(self):
        findings = findings_for(
            """
            def drain(queue):
                for item in queue:
                    try:
                        item.flush()
                    except (ValueError, Exception):
                        continue
            """,
            select=["RL006"],
        )
        assert ids_of(findings) == ["RL006"]

    def test_narrow_typed_pass_allowed(self):
        # Naming the exception is the statement of intent the rule
        # wants; best-effort cleanup may legitimately ignore OSError.
        findings = findings_for(
            """
            import os

            def prune(path):
                try:
                    os.remove(path)
                except OSError:
                    pass
            """,
            select=["RL006"],
        )
        assert findings == []

    def test_catch_all_with_handling_body_allowed(self):
        findings = findings_for(
            """
            def guarded(fn, log):
                try:
                    return fn()
                except Exception as exc:
                    log.append(exc)
                    return None
            """,
            select=["RL006"],
        )
        assert findings == []

    def test_catch_all_wrap_and_reraise_allowed(self):
        findings = findings_for(
            """
            from repro.common.errors import SnapshotError

            def restore(blob):
                try:
                    return decode(blob)
                except Exception as exc:
                    raise SnapshotError(str(exc)) from exc
            """,
            select=["RL006"],
        )
        assert findings == []

    def test_allow_paths_configurable(self):
        config = LintConfig(
            checker_options={"rl006": {"allow-paths": ["repro/core/mod.py"]}}
        )
        findings = findings_for(
            """
            def load(path):
                try:
                    return open(path).read()
                except:
                    return None
            """,
            select=["RL006"],
            config=config,
        )
        assert findings == []


# -- suppression machinery -------------------------------------------------


class TestSuppression:
    def test_same_line_pragma(self):
        findings = findings_for(
            """
            def debug(state):
                print(state)  # repro-lint: disable=RL005
            """,
            select=["RL005"],
        )
        assert findings == []

    def test_next_line_pragma_and_all(self):
        findings = findings_for(
            """
            def debug(state):
                # repro-lint: disable-next-line=all
                print(state)
            """,
            select=["RL005"],
        )
        assert findings == []

    def test_pragma_only_suppresses_listed_checker(self):
        findings = findings_for(
            """
            def load(path):
                try:
                    return open(path).read()
                except: print(path)  # repro-lint: disable=RL006
            """,
        )
        assert ids_of(findings) == ["RL005"]

    def test_unknown_pragma_id_is_a_finding(self):
        # A pragma naming an id no checker has silences nothing; it is
        # reported where it stands, and the known ids beside it still
        # apply.
        findings = findings_for(
            """
            def debug(state):
                print(state)  # repro-lint: disable=RL005,RL007
                print(state)  # repro-lint: disable=RL001
            """,
            select=["RL005"],
        )
        assert [(f.checker_id, f.line) for f in findings] == [
            ("RL000", 3), ("RL000", 4), ("RL005", 4),
        ]
        assert findings[0].column == 19
        assert "RL007" in findings[0].message
        assert "RL001" in findings[1].message


# -- config + runner machinery ---------------------------------------------


class TestConfigAndRunner:
    def test_bad_fixture_exits_nonzero_with_location(self, tmp_path):
        proj = tmp_path / "proj"
        pkg = proj / "src" / "repro" / "memctrl"
        pkg.mkdir(parents=True)
        (proj / "pyproject.toml").write_text("[project]\n")
        bad = pkg / "bad.py"
        bad.write_text(
            "def pick(queue):\n"
            "    print(queue)\n"
            "    try:\n"
            "        return queue[0]\n"
            "    except Exception:\n"
            "        pass\n"
        )
        out = io.StringIO()
        code = run(
            build_arg_parser().parse_args(
                [str(proj / "src"), "--format", "json"]
            ),
            out=out,
        )
        assert code == 1
        payload = json.loads(out.getvalue())
        locations = {
            (f["path"], f["line"], f["checker"])
            for f in payload["findings"]
        }
        assert locations == {
            ("src/repro/memctrl/bad.py", 2, "RL005"),
            ("src/repro/memctrl/bad.py", 5, "RL006"),
        }

    def test_syntax_error_reported_not_crash(self):
        findings = findings_for("def broken(:\n    pass\n")
        assert ids_of(findings) == ["RL000"]

    @pytest.mark.parametrize("select", ["RL007", "RL005,RL008", "rl001"])
    def test_unknown_select_id_is_a_usage_error(self, select, tmp_path,
                                                capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--select", select, str(tmp_path)])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [
            line for line in captured.err.splitlines() if "error:" in line
        ]
        assert len(errors) == 1
        assert "unknown checker id" in errors[0]
        with pytest.raises(ValueError, match="unknown checker id"):
            lint_source("x = 1\n", CORE_PATH, select=select.split(","))

    def test_known_select_ids_are_case_insensitive(self):
        args = build_arg_parser().parse_args(["--select", "rl005,RL006"])
        assert ids_of(findings_for("print(1)\n", select=args.select)) == [
            "RL005"
        ]


# -- rent: the mutation each checker catches and the suite misses ----------

# (checker, file, anchor line, mutated text).  Each mutation leaves
# every other test in the suite passing; only the checker sees it.
RENT = [
    pytest.param(
        "RL005", "src/repro/ga/genetic.py",
        "        self._population = population[: cfg.population_size]\n",
        "        self._population = population[: cfg.population_size]\n"
        '        print("initial population:", len(self._population))\n',
        id="RL005-print-in-GeneticAlgorithm.initialize",
    ),
    pytest.param(
        "RL006", "src/repro/resilience/snapshot.py",
        "        obj = pickle.loads(pickled)\n",
        "        obj = None\n"
        "        try:\n"
        "            obj = pickle.loads(pickled)\n"
        "        except Exception:\n"
        "            pass\n",
        id="RL006-swallowed-unpickle-error-in-load_snapshot",
    ),
]


@pytest.mark.parametrize("checker_id, rel_path, anchor, mutant", RENT)
def test_checker_catches_its_mutation_of_the_real_tree(
    checker_id, rel_path, anchor, mutant
):
    source = (REPO_ROOT / rel_path).read_text(encoding="utf-8")
    assert source.count(anchor) == 1
    assert lint_source(source, rel_path) == []
    mutated = source.replace(anchor, mutant)
    assert ids_of(lint_source(mutated, rel_path)) == [checker_id]
