"""Documentation consistency: docs must reference real artefacts."""

import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).parent.parent


def read(name: str) -> str:
    return (ROOT / name).read_text()


class TestDesignIndex:
    def test_every_referenced_bench_exists(self):
        design = read("DESIGN.md")
        for match in re.finditer(r"benchmarks/(bench_\w+\.py)", design):
            path = ROOT / "benchmarks" / match.group(1)
            assert path.exists(), f"DESIGN.md references missing {path.name}"

    def test_every_bench_is_indexed(self):
        design = read("DESIGN.md")
        for bench in (ROOT / "benchmarks").glob("bench_*.py"):
            assert bench.name in design, (
                f"{bench.name} is not referenced in DESIGN.md"
            )

    def test_referenced_modules_exist(self):
        design = read("DESIGN.md")
        for match in re.finditer(r"`repro\.([\w.]+)`", design):
            dotted = match.group(1)
            path = ROOT / "src" / "repro" / (dotted.replace(".", "/"))
            assert (
                path.with_suffix(".py").exists() or (path / "__init__.py").exists()
            ), f"DESIGN.md references missing module repro.{dotted}"


class TestExperimentsDoc:
    def test_referenced_benches_exist(self):
        text = read("EXPERIMENTS.md")
        for match in re.finditer(r"benchmarks/(bench_\w+\.py)", text):
            assert (ROOT / "benchmarks" / match.group(1)).exists()

    def test_covers_all_paper_artefacts(self):
        text = read("EXPERIMENTS.md")
        for artefact in ("Table I", "Figure 2", "Figure 9", "Figure 10",
                         "Figure 11", "Figure 12", "Figure 13",
                         "Figures 14/15", "Figure 8"):
            assert artefact in text, f"EXPERIMENTS.md missing {artefact}"


class TestReadme:
    def test_quickstart_code_runs(self):
        """The README's quickstart block must actually execute."""
        readme = read("README.md")
        blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
        assert blocks, "README has no python quickstart block"
        code = blocks[0]
        # Shrink the run so the docs test stays fast.
        code = code.replace("40_000", "4_000").replace('3000', '300')
        namespace = {}
        exec(compile(code, "README-quickstart", "exec"), namespace)  # noqa: S102

    def test_examples_listed_exist(self):
        readme = read("README.md")
        for match in re.finditer(r"`(\w+\.py)`", readme):
            name = match.group(1)
            if (ROOT / "examples" / name).exists():
                continue
            # Allow references to non-example scripts (none today).
            pytest.fail(f"README lists missing example {name}")

    def test_docs_folder_files_exist(self):
        for name in ("architecture.md", "security.md",
                     "experiments-howto.md", "api.md",
                     "static-analysis.md", "observability.md",
                     "resilience.md", "parallel.md"):
            assert (ROOT / "docs" / name).exists()


class TestDocCommandLines:
    """Every ``repro <verb> …`` / ``python -m repro.cli|repro.lint …``
    line in a fenced block must parse with today's parsers, so a doc
    cannot keep naming a flag or verb the code deleted (``--serve``,
    ``--no-cache``, ``--format sarif``, ``--baseline``, the ``serve``,
    ``trace``, ``stats`` and ``profile`` verbs, …)."""

    DOCS = (
        [ROOT / "README.md", ROOT / ".claude" / "skills" / "verify" / "SKILL.md"]
        + sorted((ROOT / "docs").glob("*.md"))
    )
    _SHELL_OPERATORS = re.compile(r"^(\||&&?|;|<|\d?>>?.*)$")

    @classmethod
    def _command_lines(cls, text):
        """Yield ``(front_end, argv)`` for each command line in ``text``."""
        import shlex

        for block in re.findall(r"```[^\n]*\n(.*?)```", text, re.S):
            for line in re.sub(r"\\\n\s*", " ", block).splitlines():
                try:
                    tokens = shlex.split(line, comments=True)
                except ValueError:  # not a shell line (python, prose)
                    continue
                while tokens and re.match(r"^\w+=", tokens[0]):
                    tokens.pop(0)  # PYTHONPATH=src and friends
                if tokens[:1] == ["repro"]:
                    front_end, argv = "repro.cli", tokens[1:]
                elif (
                    len(tokens) >= 3
                    and re.match(r"^python3?$", tokens[0])
                    and tokens[1] == "-m"
                    and tokens[2] in ("repro.cli", "repro.lint")
                ):
                    front_end, argv = tokens[2], tokens[3:]
                else:
                    continue
                for i, token in enumerate(argv):
                    if cls._SHELL_OPERATORS.match(token):
                        argv = argv[:i]
                        break
                yield front_end, argv

    def test_every_documented_command_line_parses(self):
        from repro.cli import build_parser
        from repro.lint.runner import build_arg_parser

        parsers = {
            "repro.cli": build_parser(),
            "repro.lint": build_arg_parser(),
        }
        checked, broken = 0, []
        for doc in self.DOCS:
            for front_end, argv in self._command_lines(doc.read_text()):
                checked += 1
                try:
                    parsers[front_end].parse_args(argv)
                except SystemExit:
                    broken.append(f"{doc.name}: {front_end} {' '.join(argv)}")
        assert not broken, "documented command lines no longer parse:\n" + (
            "\n".join(broken)
        )
        # The extractor itself must not rot into matching nothing.
        assert checked >= 40, checked

    @pytest.mark.parametrize("line", [
        "repro run --serve",
        "repro sweep tp-turn --jobs 4 --serve",
        "python -m repro.lint src --no-cache",
        "PYTHONPATH=src python -m repro.cli lint src --format sarif > x.sarif",
        "repro lint src --baseline lint-baseline.txt  # comment",
        "repro serve --port 9464",
        "repro sweep mesh-position --jobs 4",
        "repro faults --scenario saturate",
        "repro trace --out t.json",
        "repro stats --interval 1024",
        "repro profile --engine columnar",
    ], ids=["run-serve", "sweep-serve", "no-cache", "sarif", "baseline",
            "serve-verb", "mesh-sweep", "saturate-scenario", "trace-verb",
            "stats-verb", "profile-verb"])
    def test_deleted_flags_are_caught(self, line):
        from repro.cli import build_parser
        from repro.lint.runner import build_arg_parser

        [(front_end, argv)] = self._command_lines(f"```bash\n{line}\n```\n")
        parser = build_parser() if front_end == "repro.cli" else build_arg_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(argv)
