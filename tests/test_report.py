"""Tests for the benchmark-report assembler."""

from pathlib import Path

from repro.analysis.report import generate_report, main


def seed_results(tmp_path: Path):
    (tmp_path / "fig11_distributions.txt").write_text("fig11 data\n")
    (tmp_path / "headline_speedups.txt").write_text("headline data\n")
    (tmp_path / "custom_extra.txt").write_text("extra data\n")
    return tmp_path


class TestGenerate:
    def test_includes_present_sections(self, tmp_path):
        report = generate_report(seed_results(tmp_path))
        assert "Figure 11" in report
        assert "fig11 data" in report
        assert "headline data" in report

    def test_lists_missing_sections(self, tmp_path):
        report = generate_report(seed_results(tmp_path))
        assert "Not yet run" in report
        assert "fig12_reqc_speedup" in report

    def test_includes_unindexed_extras(self, tmp_path):
        report = generate_report(seed_results(tmp_path))
        assert "custom_extra" in report
        assert "extra data" in report

    def test_empty_dir(self, tmp_path):
        report = generate_report(tmp_path)
        assert "Not yet run" in report


class TestCli:
    def test_writes_output_file(self, tmp_path, capsys):
        seed_results(tmp_path)
        out = tmp_path / "report.md"
        assert main([str(tmp_path), "-o", str(out)]) == 0
        assert "fig11 data" in out.read_text()

    def test_prints_to_stdout(self, tmp_path, capsys):
        seed_results(tmp_path)
        assert main([str(tmp_path)]) == 0
        assert "fig11 data" in capsys.readouterr().out

    def test_missing_dir_errors(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope")]) == 1


class TestCommittedReport:
    def test_committed_report_matches_the_results(self):
        # Every indexed section has a bench that writes it, and the
        # header names the results directory relative to the checkout,
        # so regenerating the committed report is a no-op.
        root = Path(__file__).resolve().parents[1]
        report = generate_report(root / "benchmarks" / "results")
        assert report == (root / "benchmarks" / "REPORT.md").read_text()
        assert "Not yet run" not in report
