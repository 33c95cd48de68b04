"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.resilience.snapshot import SNAPSHOT_VERSION, dump_snapshot
from repro.sim.columnar import DEFAULT_ENGINE


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_benchmark(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig11", "--benchmark", "doom"])

    def test_scale_parsed(self):
        args = build_parser().parse_args(["--scale", "0.5", "list"])
        assert args.scale == 0.5

    def test_covert_key_hex(self):
        args = build_parser().parse_args(["covert", "--key", "0xFF"])
        assert int(args.key, 0) == 255

    def test_engine_default_per_verb(self):
        """Every verb that runs a system shares the one default engine,
        and ``cycle`` stays selectable as the oracle."""
        parser = build_parser()
        assert DEFAULT_ENGINE == "columnar"
        for verb in (["profile"], ["trace"], ["stats"], ["run"], ["serve"],
                     ["resume", "x.snap"], ["faults", "--scenario", "flood"]):
            assert parser.parse_args(verb).engine == DEFAULT_ENGINE
            assert parser.parse_args(
                verb + ["--engine", "cycle"]
            ).engine == "cycle"


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig11" in out and "covert" in out

    def test_fig11_quick(self, capsys):
        assert main(["--scale", "0.2", "fig11", "--benchmark", "gcc"]) == 0
        out = capsys.readouterr().out
        assert "TV distance" in out

    def test_fig12_single_benchmark(self, capsys):
        assert main(["--scale", "0.2", "fig12", "--benchmark", "apache"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out and "apache" in out

    def test_covert_quick(self, capsys):
        assert main([
            "--scale", "0.2", "covert", "--key", "0xA5", "--bits", "8",
            "--pulse", "1500", "--no-shaping",
        ]) == 0
        out = capsys.readouterr().out
        assert "bit error rate" in out

    def test_tradeoff_quick(self, capsys):
        assert main(["--scale", "0.15", "tradeoff",
                     "--benchmark", "apache"]) == 0
        out = capsys.readouterr().out
        assert "no-shaping" in out

    def test_fig13_quick(self, capsys):
        assert main(["--scale", "0.15", "fig13", "--adversary", "gcc",
                     "--victim", "astar"]) == 0
        out = capsys.readouterr().out
        assert "camouflage" in out

    def test_sweep_json_is_jobs_invariant(self, capsys, tmp_path):
        assert main(["--scale", "0.1", "sweep", "noc-latency",
                     "--benchmark", "gcc", "--jobs", "1"]) == 0
        out_1 = capsys.readouterr().out
        assert main(["--scale", "0.1", "sweep", "noc-latency",
                     "--benchmark", "gcc", "--jobs", "2"]) == 0
        out_2 = capsys.readouterr().out
        assert out_1 == out_2
        assert "mean_latency" not in out_1  # flat {latency: value} map

    def test_sweep_table_rows_are_the_accepted_names(self, capsys):
        """One table drives ``repro sweep <name>``, ``repro tradeoff``
        and ``repro detect``: every row parses, and the dedicated verb
        and the sweep row run the same points."""
        from repro.cli import _SWEEPS

        for name in _SWEEPS:
            assert build_parser().parse_args(["sweep", name]).name == name
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "no-such-sweep"])

        assert main(["--scale", "0.1", "tradeoff",
                     "--benchmark", "gcc"]) == 0
        table = capsys.readouterr().out
        assert main(["--scale", "0.1", "sweep", "tradeoff",
                     "--benchmark", "gcc"]) == 0
        points = json.loads(capsys.readouterr().out)
        # The table's last column is each point's report digest.
        table_digests = [
            line.split()[-1] for line in table.splitlines()[2:] if line
        ]
        assert table_digests == [point["digest"] for point in points]

    def test_cache_verbs_round_trip(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        assert main(["--scale", "0.1", "sweep", "noc-latency",
                     "--benchmark", "gcc", "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["cache", "ls", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "noc-latency" in out
        assert main(["cache", "prune", "--cache-dir", cache_dir,
                     "--keep", "1"]) == 0
        capsys.readouterr()
        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "removed 1" in out

    @pytest.mark.parametrize("argv", [
        ["cache", "prune"],
        ["cache", "prune", "--keep", "-1"],
        ["cache", "prune", "--older-than-days", "-1"],
        ["sweep", "tradeoff", "--jobs", "0"],
        ["tradeoff", "--jobs", "0"],
        ["detect", "--jobs", "0"],
    ])
    def test_bad_counts_are_usage_errors(self, argv, capsys, tmp_path):
        """Refused before anything runs: exit 2, one ``error:`` line,
        no traceback, and no cache directory touched."""
        cache_dir = tmp_path / "cache"
        if argv[0] == "cache":
            argv = [*argv, "--cache-dir", str(cache_dir)]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert "Traceback" not in err
        assert not cache_dir.exists()

    @pytest.mark.parametrize("argv", [
        ["sweep", "tradeoff", "--hosts", "127.0.0.1:7001"],
        ["sweep", "tradeoff", "--ledger", "ledger.json"],
        ["sweep", "tradeoff", "--lease-seconds", "5"],
        ["sweep", "tradeoff", "--dispatch-log", "events.jsonl"],
        ["dispatch", "worker"],
    ])
    def test_multi_host_options_are_gone(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2

    def test_tradeoff_prints_digests(self, capsys, tmp_path):
        assert main(["--scale", "0.1", "tradeoff", "--benchmark", "gcc",
                     "--jobs", "2",
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        out = capsys.readouterr().out
        assert "digest" in out and "no-shaping" in out

    def test_tradeoff_prints_zoo_columns(self, capsys, tmp_path):
        assert main(["--scale", "0.1", "tradeoff",
                     "--benchmark", "gcc"]) == 0
        out = capsys.readouterr().out
        assert "auc" in out and "xcorr" in out and "spectral" in out

    def test_detect_repeated_runs_byte_identical(self, capsys, tmp_path):
        # The CI detect-smoke contract: canonical JSON on stdout, the
        # same bytes (digest included) on every run and any --jobs.
        assert main(["--scale", "0.2", "detect",
                     "--benchmark", "apache", "--jobs", "1"]) == 0
        out_1 = capsys.readouterr().out
        assert main(["--scale", "0.2", "detect",
                     "--benchmark", "apache", "--jobs", "2"]) == 0
        out_2 = capsys.readouterr().out
        assert out_1 == out_2
        doc = json.loads(out_1)
        assert doc["benchmark"] == "apache"
        assert "digest" in doc
        assert [row["label"] for row in doc["rows"]][0] == "no-shaping"

    def test_detect_writes_report_file(self, capsys, tmp_path):
        out_path = tmp_path / "detect.json"
        assert main(["--scale", "0.2", "detect", "--benchmark", "apache",
                     "--out", str(out_path)]) == 0
        stdout = capsys.readouterr().out
        assert json.loads(out_path.read_text()) == json.loads(stdout)


class TestLintFrontEnds:
    """``repro lint`` is ``python -m repro.lint``: one parser, one run()."""

    @pytest.mark.parametrize("case, code", [
        ("missing", 2), ("clean", 0), ("rl005", 1),
    ])
    def test_both_front_ends_agree(self, case, code, tmp_path, capsys):
        from repro.lint import main as lint_main

        (tmp_path / "pyproject.toml").write_text("[project]\n")
        pkg = tmp_path / "src" / "repro" / "core"
        pkg.mkdir(parents=True)
        (pkg / "clean.py").write_text("def f(x):\n    return x + 1\n")
        (pkg / "rl005.py").write_text(
            "def pick(q):\n    print(q)\n    return q[0]\n"
        )
        target = {
            "missing": tmp_path / "no" / "such" / "path",
            "clean": pkg / "clean.py",
            "rl005": pkg / "rl005.py",
        }[case]

        assert main(["lint", str(target)]) == code
        via_repro = capsys.readouterr()
        assert lint_main([str(target)]) == code
        via_module = capsys.readouterr()
        assert via_repro == via_module
        if case == "missing":
            assert via_repro.err == f"error: no such path: {target}\n"
            assert via_repro.out == ""
        elif case == "rl005":
            assert "src/repro/core/rl005.py:2:5: RL005" in via_repro.out

    @pytest.mark.parametrize("flag", [
        "--no-cache", "--baseline=x", "--no-baseline", "--timings",
        "--format=sarif",
    ])
    def test_deleted_lint_flags_are_usage_errors(self, flag):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["lint", flag])
        assert excinfo.value.code == 2


class TestCalibrate:
    def test_single_benchmark(self, capsys):
        from repro.cli import main

        assert main(["--scale", "0.2", "calibrate",
                     "--benchmark", "gcc"]) == 0
        out = capsys.readouterr().out
        assert "gcc" in out and "row_hit_rate" in out


class TestObservability:
    def test_trace_exports_chrome_and_jsonl(self, capsys, tmp_path):
        import json

        chrome = tmp_path / "trace.json"
        jsonl = tmp_path / "trace.jsonl"
        assert main(["--scale", "0.2", "trace", "--out", str(chrome),
                     "--jsonl", str(jsonl)]) == 0
        out = capsys.readouterr().out
        assert "events retained" in out
        payload = json.loads(chrome.read_text())
        categories = {e["cat"] for e in payload["traceEvents"]
                      if e.get("ph") == "i"}
        assert {"shaper", "memctrl", "dram", "noc"} <= categories
        assert jsonl.read_text().count("\n") > 0

    def test_trace_category_filter(self, capsys, tmp_path):
        import json

        chrome = tmp_path / "trace.json"
        assert main(["--scale", "0.2", "trace", "--out", str(chrome),
                     "--categories", "dram"]) == 0
        payload = json.loads(chrome.read_text())
        assert {e["cat"] for e in payload["traceEvents"]
                if e.get("ph") == "i"} == {"dram"}

    def test_stats_quick(self, capsys):
        assert main(["--scale", "0.2", "stats"]) == 0
        out = capsys.readouterr().out
        assert "row hit rate" in out
        assert "memctrl.queue_depth" in out
        assert "shaping monitor" in out

    def test_stats_next_event_engine(self, capsys):
        """The clock-skipping engine is ``columnar``; the retired
        ``next_event`` name is rejected by argparse."""
        assert main(["--scale", "0.2", "stats",
                     "--engine", "columnar"]) == 0
        out = capsys.readouterr().out
        assert "row hit rate" in out
        with pytest.raises(SystemExit) as excinfo:
            main("stats --engine next_event --rows 1".split())
        assert excinfo.value.code == 2


class TestResilienceCommands:
    def _digest(self, out):
        lines = [
            line for line in out.splitlines()
            if line.startswith("report digest:")
        ]
        assert len(lines) == 1
        return lines[0]

    def test_run_resume_digest_round_trip(self, capsys, tmp_path):
        """The bit-identical-resume guarantee, from the command line."""
        ckpt = tmp_path / "ckpt"
        assert main([
            "run", "--cycles", "6000", "--checkpoint-every", "2500",
            "--checkpoint-dir", str(ckpt),
        ]) == 0
        out = capsys.readouterr().out
        assert "checkpoints: 2 taken" in out
        digest = self._digest(out)

        snap = sorted(ckpt.glob("checkpoint-*.snap"))[-1]
        assert main(["resume", str(snap), "--until", "6000"]) == 0
        out = capsys.readouterr().out
        assert "kind=system cycle=5000" in out
        assert self._digest(out) == digest

    def test_resume_requires_exactly_one_target(self, capsys, tmp_path):
        snap = str(tmp_path / "final.snap")
        assert main([
            "run", "--cycles", "1000", "--snapshot-out", snap,
        ]) == 0
        capsys.readouterr()
        assert main(["resume", snap]) == 2
        assert main(["resume", snap, "--cycles", "10", "--until", "50"]) == 2
        # --until at or before the snapshot cycle: nothing to resume.
        assert main(["resume", snap, "--until", "1000"]) == 2

    @pytest.mark.parametrize("payload, message", [
        (b"garbage", "bad magic"),
        (b'REPROSNAP v%d\n{"kind": "system", "cycle": 5}\n'
         % SNAPSHOT_VERSION, "truncated"),
        (b'REPROSNAP v1\n{"kind": "system", "cycle": 5}\npayload',
         "v1 is not supported"),
        (dump_snapshot(5, "system", 0), "holds a int, not a System"),
    ], ids=["garbage", "truncated", "old-version", "not-a-system"])
    def test_resume_bad_snapshot_is_a_usage_error(
        self, capsys, tmp_path, payload, message
    ):
        """One ``error:`` line on stderr and exit 2 — not a traceback."""
        snap = tmp_path / "bad.snap"
        snap.write_bytes(payload)
        assert main(["resume", str(snap), "--cycles", "10"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert len(err.splitlines()) == 1
        assert main(["resume", str(tmp_path / "missing.snap"),
                     "--cycles", "10"]) == 2
        assert capsys.readouterr().err.startswith("error: cannot read")

    def test_run_watchdog_no_false_positive(self, capsys):
        """A healthy shaped run under a tight budget completes cleanly."""
        assert main([
            "run", "--cycles", "6000", "--watchdog", "2000",
        ]) == 0
        out = capsys.readouterr().out
        assert "stopped at cycle 6000" in out

    def test_run_abort_reports_typed_error(self, capsys, tmp_path):
        """A failing checkpoint aborts the run loudly, not silently."""
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where the checkpoint dir should go")
        assert main([
            "run", "--cycles", "6000", "--checkpoint-every", "1000",
            "--checkpoint-dir", str(blocker / "ckpt"),
        ]) == 1
        out = capsys.readouterr().out
        assert "run aborted: SnapshotError" in out

    def test_faults_malformed_trace(self, capsys):
        assert main(["faults", "--scenario", "malformed-trace"]) == 0
        out = capsys.readouterr().out
        assert '"outcome": "typed_error"' in out
        assert '"error": "TraceFormatError"' in out

    def test_faults_livelock_quick(self, capsys, tmp_path):
        dump = tmp_path / "livelock.json"
        assert main([
            "faults", "--scenario", "livelock", "--cycles", "20000",
            "--dump", str(dump),
        ]) == 0
        out = capsys.readouterr().out
        assert '"error": "WatchdogError"' in out
        assert dump.exists()


class TestObservabilityCommands:
    def _digest(self, out):
        lines = [
            line for line in out.splitlines()
            if line.startswith("report digest:")
        ]
        assert len(lines) == 1
        return lines[0]

    def test_profile_columnar_rollup(self, capsys, tmp_path):
        rollup = tmp_path / "rollup.json"
        metrics = tmp_path / "metrics.txt"
        assert main([
            "--scale", "0.1", "profile", "--engine", "columnar",
            "--out", str(rollup), "--metrics-out", str(metrics),
        ]) == 0
        out = capsys.readouterr().out
        assert "per-station work:" in out
        assert "memctrl" in out
        self._digest(out)

        import json

        doc = json.loads(rollup.read_text())
        cycles = doc["cycles"]
        assert cycles["stepped"] + cycles["skipped"] == cycles["simulated"]
        assert doc["engines"] == {"columnar": 1}
        assert doc["stations"]
        assert "wall" in doc  # the artifact carries the wall total...
        text = metrics.read_text()
        assert "profiler_cycles_simulated_total" in text
        assert "wall" not in text  # ...the registry never does
        assert text.endswith("# EOF\n")

    def test_profile_digest_engine_invariant(self, capsys):
        digests = {}
        for engine in ("cycle", "columnar"):
            assert main([
                "--scale", "0.1", "profile", "--engine", engine,
            ]) == 0
            digests[engine] = self._digest(capsys.readouterr().out)
        assert len(set(digests.values())) == 1

    @pytest.mark.parametrize("engine", ["cycle", "columnar"])
    def test_quarter_scale_run_digest_is_pinned(self, capsys, engine):
        """The default machine's ``repro --scale 0.25 run`` digest."""
        assert main(["--scale", "0.25", "run", "--engine", engine]) == 0
        out = capsys.readouterr().out
        assert self._digest(out) == "report digest: 19f09053e932643d"

    def test_serve_digest_matches_plain_run(self, capsys):
        assert main(["--scale", "0.1", "run"]) == 0
        plain = self._digest(capsys.readouterr().out)
        assert main(["--scale", "0.1", "serve"]) == 0
        out = capsys.readouterr().out
        assert "serving metrics at http://127.0.0.1:" in out
        assert self._digest(out) == plain

    @pytest.mark.parametrize("verb", ["run", "sweep tradeoff"])
    def test_serve_is_one_verb_not_a_flag(self, verb):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([*verb.split(), "--serve"])
        assert excinfo.value.code == 2

    def test_serve_live_scrape(self, capsys, monkeypatch):
        """Drive `repro serve` from a worker thread and scrape the
        endpoints while it lingers — the CI smoke job, in-process."""
        import json
        import re
        import socket
        import threading
        import time
        import urllib.request

        from repro.obs.server import ServePublisher

        # A real scrape right after every publish: what a scraper sees
        # must advance at each --publish-interval boundary.
        scraped_cycles = []
        publish = ServePublisher.publish

        def publish_then_scrape(self, cycle, status="ok"):
            publish(self, cycle, status)
            with urllib.request.urlopen(
                self.server.url + "/metrics", timeout=5
            ) as response:
                text = response.read().decode("utf-8")
            scraped_cycles.append(int(re.search(
                r"^obs_published_cycle (\d+)$", text, re.M
            ).group(1)))

        monkeypatch.setattr(ServePublisher, "publish", publish_then_scrape)

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        rc = []
        thread = threading.Thread(target=lambda: rc.append(main([
            "--scale", "0.1", "serve", "--port", str(port),
            "--publish-interval", "1024", "--linger", "6",
        ])))
        thread.start()
        base = f"http://127.0.0.1:{port}"

        def scrape(route):
            deadline = time.monotonic() + 30
            while True:
                try:
                    with urllib.request.urlopen(
                        base + route, timeout=2
                    ) as response:
                        return response.read().decode("utf-8")
                except OSError:
                    if time.monotonic() > deadline:
                        raise
                    time.sleep(0.1)

        try:
            # The server answers "starting" between start() and the
            # first publish; wait for the run to finish so /metrics
            # holds final state.
            deadline = time.monotonic() + 60
            while True:
                health = json.loads(scrape("/healthz"))
                if health["status"] == "ok" and health["cycle"] >= 4000:
                    break
                assert time.monotonic() < deadline
                time.sleep(0.1)
            text = scrape("/metrics")
            assert "profiler_cycles_simulated_total 4000" in text
            assert "monitor_checkpoints" in text
            assert "core0_request_credits" in text
            assert text.endswith("# EOF\n")
        finally:
            thread.join(timeout=60)
        assert rc == [0]
        assert scraped_cycles == [0, 1024, 2048, 3072, 4000]
        out = capsys.readouterr().out
        assert "stopped at cycle 4000" in out
