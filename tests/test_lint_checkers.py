"""Fixture-driven tests for the repro.lint checkers (RL001..RL004).

Each checker gets at least one true-positive and one clean fixture,
plus pragma-suppression coverage and the config seam (checker
options, per-path disables, severity overrides).
"""

import io
import json
import textwrap

from repro.lint import LintConfig, Severity, lint_paths, lint_source
from repro.lint.runner import build_arg_parser, run

CORE_PATH = "src/repro/core/mod.py"


def findings_for(code, path=CORE_PATH, select=None, config=None):
    return lint_source(textwrap.dedent(code), path, config, select=select)


def ids_of(findings):
    return [f.checker_id for f in findings]


# -- RL001 determinism -----------------------------------------------------


class TestRL001:
    def test_random_import_and_call_flagged(self):
        findings = findings_for(
            """
            import random

            def jitter():
                return random.random()
            """,
            select=["RL001"],
        )
        assert ids_of(findings) == ["RL001", "RL001"]
        assert findings[0].line == 2  # the import
        assert "random" in findings[0].message

    def test_numpy_random_alias_resolved(self):
        findings = findings_for(
            """
            import numpy as np

            def noise(n):
                return np.random.default_rng().random(n)
            """,
            select=["RL001"],
        )
        assert len(findings) == 1
        assert findings[0].key == "numpy.random.default_rng"
        assert findings[0].line == 5

    def test_wall_clock_flagged(self):
        findings = findings_for(
            """
            import time
            from datetime import datetime

            def stamp():
                return time.time(), datetime.now()
            """,
            select=["RL001"],
        )
        assert ids_of(findings) == ["RL001", "RL001"]
        assert {f.key for f in findings} == {
            "time.time", "datetime.datetime.now"
        }

    def test_seeded_rng_clean(self):
        findings = findings_for(
            """
            from repro.common.rng import DeterministicRng

            def jitter(rng: DeterministicRng):
                return rng.random() + rng.gauss(0.0, 1.0)
            """,
            select=["RL001"],
        )
        assert findings == []

    def test_allow_path_exempts_rng_module(self):
        findings = findings_for(
            """
            import random

            _r = random.Random(7)
            """,
            path="src/repro/common/rng.py",
            select=["RL001"],
        )
        assert findings == []


# -- RL002 integer cycle arithmetic ----------------------------------------


class TestRL002:
    def test_division_into_cycle_assignment(self):
        findings = findings_for(
            """
            def plan(base, period):
                release_cycle = base + period / 2
                return release_cycle
            """,
            select=["RL002"],
        )
        assert ids_of(findings) == ["RL002"]
        assert findings[0].line == 3
        assert "release_cycle" in findings[0].message

    def test_return_from_cycle_valued_function(self):
        findings = findings_for(
            """
            class Link:
                def next_event_cycle(self, cycle):
                    return cycle + self.period / 2
            """,
            select=["RL002"],
        )
        assert ids_of(findings) == ["RL002"]
        assert findings[0].key == "next_event_cycle"

    def test_tainted_local_reaching_comparison(self):
        findings = findings_for(
            """
            def choose(intervals, total, n, deadline):
                needed = total / n
                for iv in intervals:
                    if deadline <= needed:
                        return iv
                return None
            """,
            select=["RL002"],
        )
        assert ids_of(findings) == ["RL002"]
        assert "needed" in findings[0].message

    def test_float_kwarg_and_augmented_division(self):
        findings = findings_for(
            """
            def drive(shaper, deadline):
                shaper.submit(cycle=deadline / 2)
                deadline /= 4
            """,
            select=["RL002"],
        )
        assert len(findings) == 2

    def test_int_coercion_and_ratios_clean(self):
        findings = findings_for(
            """
            import math

            def stats(hits, total, a, b):
                ratio = hits / total
                mean_latency = hits / max(total, 1)
                release_cycle = int(a / b)
                start_cycle = math.ceil(a / b)
                span_cycles = a // b
                return ratio, mean_latency, release_cycle, start_cycle, span_cycles
            """,
            select=["RL002"],
        )
        assert findings == []

    def test_taint_cleared_by_integer_reassignment(self):
        findings = findings_for(
            """
            def ok(total, n, deadline):
                q = total / n
                q = total // n
                return deadline <= q
            """,
            select=["RL002"],
        )
        assert findings == []

    def test_out_of_package_path_ignored(self):
        findings = findings_for(
            """
            def plan(base):
                release_cycle = base / 2
                return release_cycle
            """,
            path="src/repro/analysis/mod.py",
            select=["RL002"],
        )
        assert findings == []


# -- RL003 next-event contract ---------------------------------------------


class TestRL003:
    TICK_ONLY = """
        class Widget:
            def tick(self, cycle):
                pass
        """

    def test_tick_without_next_event_flagged(self):
        findings = findings_for(
            self.TICK_ONLY, path="src/repro/noc/widget.py", select=["RL003"]
        )
        assert ids_of(findings) == ["RL003"]
        assert findings[0].key == "Widget"
        assert findings[0].line == 2

    def test_both_methods_clean(self):
        findings = findings_for(
            """
            class Widget:
                def tick(self, cycle):
                    pass

                def next_event_cycle(self, cycle):
                    return None
            """,
            path="src/repro/noc/widget.py",
            select=["RL003"],
        )
        assert findings == []

    def test_same_module_inheritance_satisfies(self):
        findings = findings_for(
            """
            class Base:
                def next_event_cycle(self, cycle):
                    return None

            class Widget(Base):
                def tick(self, cycle):
                    pass
            """,
            path="src/repro/noc/widget.py",
            select=["RL003"],
        )
        assert findings == []

    def test_config_exemption(self):
        config = LintConfig(
            checker_options={"rl003": {"exempt": ["Widget"]}}
        )
        findings = findings_for(
            self.TICK_ONLY,
            path="src/repro/noc/widget.py",
            select=["RL003"],
            config=config,
        )
        assert findings == []

    def test_unsimulated_package_ignored(self):
        findings = findings_for(
            self.TICK_ONLY, path="src/repro/analysis/widget.py",
            select=["RL003"],
        )
        assert findings == []


# -- RL004 mutable shared state --------------------------------------------


class TestRL004:
    def test_mutable_default_argument(self):
        findings = findings_for(
            """
            def record(event, trace=[]):
                trace.append(event)
                return trace
            """,
            select=["RL004"],
        )
        assert ids_of(findings) == ["RL004"]
        assert findings[0].key == "record"

    def test_keyword_only_mutable_default(self):
        findings = findings_for(
            """
            def record(event, *, cache={}):
                cache[event] = True
            """,
            select=["RL004"],
        )
        assert len(findings) == 1

    def test_class_level_mutable_literal(self):
        findings = findings_for(
            """
            class Core:
                pending = []

                def __init__(self):
                    self.cycle = 0
            """,
            select=["RL004"],
        )
        assert ids_of(findings) == ["RL004"]
        assert findings[0].key == "Core.pending"

    def test_clean_idioms(self):
        findings = findings_for(
            """
            from dataclasses import dataclass, field
            from typing import List, Tuple

            @dataclass
            class Config:
                taps: List[int] = field(default_factory=list)

            class Core:
                EDGES: Tuple[int, ...] = (1, 2, 4)

                def __init__(self, trace=None):
                    self.trace = list(trace or [])
            """,
            select=["RL004"],
        )
        assert findings == []


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
            import time

            def stamp():
                return time.time()  # repro-lint: disable=RL001
            """,
            select=["RL001"],
        )
        assert findings == []

    def test_next_line_pragma_and_all(self):
        findings = findings_for(
            """
            def plan(base):
                # repro-lint: disable-next-line=all
                release_cycle = base / 2
                return release_cycle
            """,
            select=["RL002"],
        )
        assert findings == []

    def test_pragma_only_suppresses_listed_checker(self):
        findings = findings_for(
            """
            def record(base, trace=[]):
                release_cycle = base / 2  # repro-lint: disable=RL001
                return release_cycle, trace
            """,
        )
        assert sorted(ids_of(findings)) == ["RL002", "RL004"]


# -- config + runner machinery ---------------------------------------------


class TestConfigAndRunner:
    def test_disable_per_path(self):
        config = LintConfig(disable_per_path={"repro/core/*": ["RL002"]})
        code = """
        def plan(base):
            release_cycle = base / 2
            return release_cycle
        """
        assert findings_for(code, config=config, select=["RL002"]) == []
        assert len(
            findings_for(
                code, path="src/repro/noc/mod.py", config=config,
                select=["RL002"],
            )
        ) == 1

    def test_severity_override_downgrades_exit(self, tmp_path):
        pkg = tmp_path / "src"
        pkg.mkdir()
        (pkg / "mod.py").write_text("def f(xs=[]):\n    return xs\n")
        config = LintConfig(
            project_root=str(tmp_path),
            severity_overrides={"RL004": Severity.WARNING},
        )
        result = lint_paths([str(pkg)], config)
        assert len(result.findings) == 1
        assert result.findings[0].severity == Severity.WARNING
        assert result.exit_code == 0

    def test_bad_fixture_exits_nonzero_with_location(self, tmp_path):
        proj = tmp_path / "proj"
        pkg = proj / "src" / "repro" / "memctrl"
        pkg.mkdir(parents=True)
        (proj / "pyproject.toml").write_text("[project]\n")
        bad = pkg / "bad.py"
        bad.write_text(
            "import random\n"
            "\n"
            "def pick(queue):\n"
            "    return random.choice(queue)\n"
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
        assert ("src/repro/memctrl/bad.py", 1, "RL001") in locations
        assert ("src/repro/memctrl/bad.py", 4, "RL001") in locations

    def test_syntax_error_reported_not_crash(self):
        findings = findings_for("def broken(:\n    pass\n")
        assert ids_of(findings) == ["RL000"]
