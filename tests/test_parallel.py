"""Tests for repro.parallel: executor determinism, caching, retry.

The load-bearing claims here are the ISSUE-5 acceptance criteria:
``jobs=1`` and ``jobs=N`` produce byte-identical merged output (and
identical per-point report digests), and a warm cache replays a sweep
with zero simulations.  At ``jobs=N`` a map forks ``N - 1`` lanes from
the calling process, which is safe because the calling process (the
reference every ``jobs`` value must match) is a lane too;
docs/parallel.md has the design and its measurements.  The failure
matrix's forked column is pinned with :func:`meet`, which makes the
calling process and the forked lane hold one shard each.
"""

import dataclasses
import json
import multiprocessing
import os
import signal
import tempfile
import threading
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import ExperimentDefaults, tradeoff_sweep
from repro.analysis.sweeps import noc_latency_sweep
from repro.common.errors import ConfigurationError, WorkerFailureError
from repro.common.rng import DeterministicRng
from repro.common.util import canonical_json_digest
from repro.parallel import (
    CACHE_SCHEMA,
    ResultCache,
    SweepExecutor,
    cache_key,
    config_digest,
)
from repro.parallel.tasks import (
    encode_point,
    noc_latency_task,
)
from repro.workloads.spec import make_trace
from repro.workloads.synthetic import SyntheticTraceGenerator

FAST = dataclasses.replace(ExperimentDefaults(), accesses=600, cycles=6000)


def square_task(payload):
    return {"value": payload["x"] ** 2}


def seeded_task(payload, task_seed=None):
    return {"x": payload["x"], "task_seed": task_seed}


def always_fails_task(payload):
    raise ValueError("permanent failure")


def flaky_echo_task(payload):
    """Fails on the first attempt, succeeds once the marker exists."""
    if not os.path.exists(payload["marker"]):
        with open(payload["marker"], "w", encoding="utf-8") as fh:
            fh.write("attempted")
        raise RuntimeError("transient failure")
    return {"x": payload["x"]}


def fails_on_request_task(payload):
    if payload.get("fail"):
        raise ValueError("permanent failure")
    return {"x": payload["x"]}


def thread_task(payload):
    return {"thread": threading.get_ident()}


def pid_task(payload):
    """Lingers long enough for every lane to take a shard."""
    time.sleep(0.05)
    return os.getpid()


def meet(payload):
    """Hold this shard until the other side holds one too.

    With two shards at ``jobs=2``, the calling process
    (``payload["parent"]``) and the one forked lane then run one shard
    each, whichever of them took which.  A shard run again in the
    calling process finds the lane's marker and goes straight on.
    Returns which side ran it.
    """
    here = "parent" if os.getpid() == payload["parent"] else "lane"
    there = "lane" if here == "parent" else "parent"
    open(os.path.join(payload["dir"], here), "w", encoding="utf-8").close()
    deadline = time.monotonic() + 30.0
    while (not os.path.exists(os.path.join(payload["dir"], there))
           and time.monotonic() < deadline):
        time.sleep(0.005)
    return here


def fails_on_the_lane_task(payload):
    """Fails, as ``payload["mode"]`` says, on the forked lane only."""
    if meet(payload) == "lane":
        if payload["mode"] == "raise":
            raise ValueError("permanent failure")
        if payload["mode"] == "unpicklable":
            return {"x": payload["x"], "fn": lambda: None}
    return {"x": payload["x"]}


def dies_on_the_lane_task(payload):
    """A real sweep point whose forked lane dies under it, mid-shard."""
    if meet(payload) == "lane":
        os._exit(3)
    return noc_latency_task(payload["point"])


def nested_map_task(payload):
    """Maps again with ``jobs=2`` from inside the task."""
    meet(payload)
    return SweepExecutor(jobs=2).map(
        square_task, [{"x": x} for x in range(payload["n"])]
    )


def where_task(payload):
    """Which process ran the shard, and its thread count meanwhile."""
    meet(payload)
    return {"pid": os.getpid(), "threads": threading.active_count()}


def interrupted_task(payload):
    """The calling process is interrupted while the lane simulates on."""
    if meet(payload) == "parent":
        raise KeyboardInterrupt
    time.sleep(30.0)
    return {}


def marks_and_lingers_task(payload):
    """Leaves a marker that it ran; shard ``fail`` raises at once."""
    if payload.get("fail"):
        raise ValueError("permanent failure")
    open(payload["marker"], "w", encoding="utf-8").close()
    time.sleep(payload["linger"])
    return {"x": payload["x"]}


def fails_once_task(payload):
    """Every third shard fails on its first attempt, wherever it runs."""
    x = payload["x"]
    marker = os.path.join(payload["dir"], str(x))
    if x % 3 == 0 and not os.path.exists(marker):
        open(marker, "w", encoding="utf-8").close()
        raise RuntimeError("transient failure")
    return x


def _map_hung(signum, frame):
    raise TimeoutError("the shard loop deadlocked")


def met(tmp_path, payloads):
    """``payloads`` set up for :func:`meet` (one rendezvous per map)."""
    return [dict(p, dir=str(tmp_path), parent=os.getpid()) for p in payloads]


#: Every kind of lane a shard can run on: the failure matrix's columns.
#: At ``jobs=2`` an attempt may run on either; the tests built on
#: :func:`meet` pin an attempt to the forked lane.
LANE_KINDS = ("inline", "forked")


def lane_executor(kind, max_attempts=2):
    """``inline``: the calling process alone; ``forked``: one forked
    lane beside it."""
    return SweepExecutor(
        jobs=1 if kind == "inline" else 2, max_attempts=max_attempts
    )


class TestSubstream:
    def test_substreams_and_parent_pairwise_distinct(self):
        parent = DeterministicRng(42)
        a = parent.substream(0)
        b = parent.substream(1)
        streams = [
            [rng.randint(0, 10**9) for _ in range(8)]
            for rng in (parent, a, b)
        ]
        assert streams[0] != streams[1]
        assert streams[0] != streams[2]
        assert streams[1] != streams[2]

    def test_reproducible_and_state_independent(self):
        """Derivation depends on (seed, task_id) only — not on how much
        of the parent stream was consumed (fork/spawn safety)."""
        first = DeterministicRng(7).substream(3).seed
        parent = DeterministicRng(7)
        for _ in range(100):
            parent.random()
        assert parent.substream(3).seed == first

    def test_negative_task_id_rejected(self):
        with pytest.raises(ValueError):
            DeterministicRng(0).substream(-1)


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        digest = config_digest("unit", {"x": 1})
        assert cache.get(digest) is None
        cache.put(digest, cache_key("unit", {"x": 1}), {"value": 2})
        assert cache.get(digest) == {"value": 2}
        assert cache.hits == 1 and cache.misses == 1

    def test_corrupt_entry_is_miss_and_removed(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        digest = config_digest("unit", {"x": 2})
        path = cache.path_for(digest)
        cache.put(digest, cache_key("unit", {"x": 2}), {"value": 4})
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("{truncated")
        assert cache.get(digest) is None
        assert not os.path.exists(path)

    def test_schema_mismatch_is_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        digest = config_digest("unit", {"x": 3})
        path = cache.path_for(digest)
        cache.put(digest, cache_key("unit", {"x": 3}), {"value": 9})
        with open(path, "r", encoding="utf-8") as fh:
            entry = json.load(fh)
        entry["cache_schema"] = CACHE_SCHEMA + 1
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(entry, fh)
        assert cache.get(digest) is None

    def test_digest_covers_kind_and_payload(self):
        base = config_digest("kind-a", {"x": 1})
        assert config_digest("kind-b", {"x": 1}) != base
        assert config_digest("kind-a", {"x": 2}) != base
        assert config_digest("kind-a", {"x": 1}) == base

    def test_prune_and_clear(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        for x in range(5):
            digest = config_digest("unit", {"x": x})
            cache.put(digest, cache_key("unit", {"x": x}), {"value": x})
        assert cache.prune(keep=2) == 3
        assert len(cache.entries()) == 2
        assert cache.clear() == 2
        assert cache.entries() == []

    def test_prune_requires_a_filter(self, tmp_path):
        with pytest.raises(ConfigurationError):
            ResultCache(str(tmp_path)).prune()

    @settings(max_examples=100, deadline=None)
    @given(raw=st.binary(max_size=64))
    @example(raw=b"\xff\xfe")
    @example(raw=b"[1, 2]")
    def test_any_bytes_heal_as_a_miss(self, raw):
        from repro.cli import main

        with tempfile.TemporaryDirectory() as directory:
            cache = ResultCache(directory)
            digest = config_digest("unit", {"x": 1})
            path = cache.path_for(digest)
            os.makedirs(os.path.dirname(path))
            with open(path, "wb") as fh:
                fh.write(raw)
            assert len(cache.entries()) <= 1
            assert main(["cache", "ls", "--cache-dir", directory]) == 0
            assert cache.get(digest) is None
            assert (cache.hits, cache.misses) == (0, 1)
            assert not os.path.exists(path)


class TestSweepExecutor:
    def test_jobs_must_be_positive(self):
        for kwargs in ({"jobs": 0}, {"max_attempts": 0}):
            with pytest.raises(ConfigurationError):
                SweepExecutor(**kwargs)

    def test_label_count_must_match(self):
        with pytest.raises(ConfigurationError):
            SweepExecutor().map(square_task, [{"x": 1}], labels=["a", "b"])

    def test_inline_and_pooled_agree(self):
        payloads = [{"x": x} for x in range(6)]
        inline = SweepExecutor(jobs=1).map(square_task, payloads)
        pooled = SweepExecutor(jobs=4).map(square_task, payloads)
        assert inline == pooled == [{"value": x * x} for x in range(6)]

    def test_task_seeds_are_jobs_invariant(self):
        payloads = [{"x": x} for x in range(5)]
        inline = SweepExecutor(jobs=1, seed=9).map(seeded_task, payloads)
        pooled = SweepExecutor(jobs=3, seed=9).map(seeded_task, payloads)
        assert inline == pooled
        seeds = [row["task_seed"] for row in inline]
        assert len(set(seeds)) == len(seeds)

    def test_warm_cache_does_not_shift_later_seeds(self, tmp_path):
        """The lifetime counter advances on cache hits, so a cached
        first batch leaves the second batch's seeds unchanged."""
        batch_a = [{"x": x} for x in range(3)]
        batch_b = [{"x": x} for x in range(10, 13)]
        cold = SweepExecutor(jobs=1, seed=5, cache=str(tmp_path))
        cold_a = cold.map(seeded_task, batch_a, kind="seeded")
        cold_b = cold.map(seeded_task, batch_b, kind="seeded")
        warm = SweepExecutor(jobs=1, seed=5, cache=str(tmp_path))
        warm_a = warm.map(seeded_task, batch_a, kind="seeded")
        warm_b = warm.map(seeded_task, batch_b, kind="seeded")
        assert warm_a == cold_a
        assert warm_b == cold_b
        assert warm.tasks_cached == 6 and warm.tasks_run == 0

    def test_retry_recovers_transient_failure(self, tmp_path):
        """A charged attempt costs one retry, whichever lane ran it."""
        for kind in LANE_KINDS:
            payloads = [
                {"x": i, "marker": str(tmp_path / f"{kind}-{i}")}
                for i in range(2)
            ]
            executor = lane_executor(kind)
            results = executor.map(flaky_echo_task, payloads)
            assert results == [{"x": 0}, {"x": 1}], kind
            assert executor.retries == 2, kind
            assert executor.tasks_run == 2, kind

    def test_exhausted_retries_raise_with_shard_identity(self):
        """The budget ends in the same WorkerFailureError, field for
        field, whichever lane ran the shard."""
        payloads = [{"x": 1}, {"x": 2, "fail": True}]
        for kind in LANE_KINDS:
            executor = lane_executor(kind)
            with pytest.raises(WorkerFailureError) as excinfo:
                executor.map(
                    fails_on_request_task, payloads,
                    labels=["fine", "doomed"],
                )
            error = excinfo.value
            assert error.task_index == 1, kind
            assert error.label == "doomed", kind
            assert error.attempts == 2, kind
            assert error.last_error == "ValueError: permanent failure", kind
            assert str(error) == (
                "task doomed failed after 2 attempt(s): "
                "ValueError: permanent failure"
            ), kind
            assert executor.retries == 1, kind
            assert executor.tasks_run == 1, kind

    def test_lowest_failing_shard_is_raised(self):
        """Several terminal failures: the lowest shard index wins, as
        in-order collection would have it, however the lanes race."""
        executor = SweepExecutor(jobs=2, max_attempts=2)
        with pytest.raises(WorkerFailureError) as excinfo:
            executor.map(always_fails_task, [{"x": x} for x in range(3)])
        assert excinfo.value.task_index == 0

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_shards_above_a_terminal_failure_are_abandoned(self, tmp_path,
                                                           jobs):
        """Shard 1 fails at once; the shards no lane had taken by then
        never run (at ``jobs=2`` the forked lane may have taken one or
        two more while the calling process ran shard 0)."""
        payloads = [
            {"x": x, "marker": str(tmp_path / str(x)), "linger": 0.3,
             "fail": x == 1}
            for x in range(8)
        ]
        executor = SweepExecutor(jobs=jobs, max_attempts=1)
        with pytest.raises(WorkerFailureError) as excinfo:
            executor.map(marks_and_lingers_task, payloads)
        assert excinfo.value.task_index == 1
        ran = sorted(int(name) for name in os.listdir(tmp_path))
        assert ran[0] == 0 and max(ran) < 5, ran
        if jobs == 1:
            assert ran == [0]
        assert executor.tasks_run == len(ran)

    def test_lifecycle_events_emitted(self):
        """Each shard's ``done`` transition reaches the executor once
        and is counted in ``tasks_run``."""
        executor = SweepExecutor()
        rows = executor.map(thread_task, [{"x": 1}, {"x": 2}])
        # jobs=1 is the calling thread itself: tracebacks, cProfile and
        # span recorders see the tasks nested under map().
        assert rows == [{"thread": threading.get_ident()}] * 2
        assert executor.tasks_run == 2
        assert executor.tasks_cached == 0 and executor.retries == 0


class TestShardLoopStress:
    def test_many_lanes_lose_no_update(self, tmp_path):
        """More lanes than a 2-CPU box has cores, and a third of the
        shards failing once: every shard still resolves exactly once, in
        submission order, and every transition is counted exactly once
        (a lost update breaks the totals).  An alarm bounds the map, so
        a deadlock fails the test instead of hanging it."""
        payloads = [{"x": x, "dir": str(tmp_path)} for x in range(120)]
        executor = SweepExecutor(jobs=4)
        previous = signal.signal(signal.SIGALRM, _map_hung)
        signal.alarm(60)
        try:
            rows = executor.map(fails_once_task, payloads)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert rows == list(range(120))
        assert executor.tasks_run == 120
        assert executor.retries == 40


class TestJobsDifferential:
    """ISSUE-5 acceptance: jobs=1 vs jobs=4 bit-identical outputs."""

    def test_sweep_merged_output_and_digests(self):
        merged_1 = noc_latency_sweep("gcc", FAST, latencies=(1, 4), jobs=1)
        merged_4 = noc_latency_sweep("gcc", FAST, latencies=(1, 4), jobs=4)
        assert merged_1 == merged_4
        payloads = [
            encode_point(["gcc"], FAST, noc_latency=latency)
            for latency in (1, 4)
        ]
        rows_1 = SweepExecutor(jobs=1).map(noc_latency_task, payloads)
        rows_4 = SweepExecutor(jobs=4).map(noc_latency_task, payloads)
        assert [r["digest"] for r in rows_1] == [r["digest"] for r in rows_4]

    def test_experiment_points_and_digests(self):
        points_1 = tradeoff_sweep("gcc", FAST, scales=(0.8, 1.4), jobs=1)
        points_4 = tradeoff_sweep("gcc", FAST, scales=(0.8, 1.4), jobs=4)
        assert points_1 == points_4
        assert all("digest" in p for p in points_1)

    def test_sweep_generates_its_trace_once(self, monkeypatch):
        """The base run and every rung share one memoised trace, and
        the sweep's bytes are the ones it printed before the memo."""
        generated = []
        columns = SyntheticTraceGenerator.columns

        def counting(generator, count):
            generated.append(count)
            return columns(generator, count)

        make_trace.cache_clear()
        monkeypatch.setattr(SyntheticTraceGenerator, "columns", counting)
        points_1 = tradeoff_sweep("apache", FAST, scales=(0.8, 1.4), jobs=1)
        assert generated == [FAST.accesses]
        assert canonical_json_digest(points_1) == "6ac601acf9738150"
        # The digest before points carried the two rate fields.
        assert canonical_json_digest([
            {k: v for k, v in point.items()
             if k not in ("requested_rate", "granted_rate")}
            for point in points_1
        ]) == "1e03fbb19465af99"
        monkeypatch.undo()
        for jobs in (2, 3):
            points = tradeoff_sweep(
                "apache", FAST, scales=(0.8, 1.4), jobs=jobs
            )
            assert canonical_json_digest(points) == "6ac601acf9738150", jobs


class TestRegistryMerge:
    """ISSUE-8 acceptance: the merged shard registries of a jobs=1 and
    a jobs=4 sweep render byte-identical OpenMetrics expositions."""

    def _payloads(self):
        return [
            encode_point(["gcc"], FAST, noc_latency=latency)
            for latency in (1, 4)
        ]

    def test_merged_exposition_jobs_invariant(self):
        from repro.obs.export import render_openmetrics

        texts = {}
        for jobs in (1, 4):
            executor = SweepExecutor(jobs=jobs)
            rows = executor.map(noc_latency_task, self._payloads())
            # The registry doc is absorbed by the executor, never
            # returned to the driver (sweep JSON stays clean).
            assert all("obs_registry" not in row for row in rows)
            texts[jobs] = render_openmetrics(executor.merged_registry())
        assert texts[1] == texts[4]
        assert "sweep_points_total 2" in texts[1]
        assert "parallel_shards_merged 2" in texts[1]
        assert "sweep_point_cycles_bucket" in texts[1]
        # Worker count must not leak into the merged registry.
        assert "parallel_jobs" not in texts[1]

    def test_cached_replay_merges_identically(self, tmp_path):
        from repro.obs.export import render_openmetrics

        texts = []
        for _ in range(2):
            executor = SweepExecutor(jobs=1, cache=str(tmp_path))
            executor.map(noc_latency_task, self._payloads())
            texts.append(render_openmetrics(executor.merged_registry()))
        assert texts[0] == texts[1]


class TestLanes:
    """``jobs=N`` is N simulations in flight: the calling process plus
    N-1 lanes a map forks from it."""

    def test_calling_process_and_one_worker_share_the_shards(self):
        pids = SweepExecutor(jobs=2).map(pid_task, [{}] * 6)
        assert os.getpid() in pids
        assert len(set(pids)) == 2

    def test_no_thread_beside_a_task_in_the_calling_process(self, tmp_path):
        """Lanes are processes: while a ``jobs=2`` map runs, the calling
        process has no thread but its own (a fork from a threaded
        process may deadlock, and Python 3.12 warns about it)."""
        rows = SweepExecutor(jobs=2).map(where_task, met(tmp_path, [{}] * 2))
        assert sorted(row["pid"] == os.getpid() for row in rows) == [
            False, True,
        ]
        assert [row["threads"] for row in rows] == [1, 1]

    def test_single_shard_runs_inline_and_forks_nothing(self, monkeypatch):
        forks = []
        fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        rows = SweepExecutor(jobs=3).map(thread_task, [{"x": 1}])
        assert rows == [{"thread": threading.get_ident()}]
        assert forks == []
        SweepExecutor(jobs=3).map(pid_task, [{}] * 4)
        assert len(forks) == 2

    def test_an_interrupt_leaves_no_lane_behind(self, tmp_path):
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            SweepExecutor(jobs=2).map(
                interrupted_task, met(tmp_path, [{}] * 2)
            )
        assert time.monotonic() - start < 20.0
        assert multiprocessing.active_children() == []


class TestForkedPool:
    """The lanes are forked from the calling process (docs/parallel.md,
    contract items 1 and 5), and the failure matrix's forked column:
    every test here pins one attempt to the forked lane with
    :func:`meet`."""

    def test_a_task_that_maps_again_inside_a_worker_works(self, tmp_path):
        payloads = met(tmp_path, [{"n": 3}, {"n": 4}])
        rows = SweepExecutor(jobs=2, max_attempts=1).map(
            nested_map_task, payloads
        )
        assert rows == [
            [{"value": x * x} for x in range(n)] for n in (3, 4)
        ]

    @pytest.mark.parametrize("mode", ["raise", "unpicklable"])
    def test_a_failed_attempt_on_the_lane_is_charged(self, tmp_path, mode):
        """The task raised, or its result cannot cross the pipe: one
        charge, and the shard's rerun in the calling process returns."""
        payloads = met(tmp_path, [{"x": 0, "mode": mode},
                                  {"x": 1, "mode": mode}])
        executor = SweepExecutor(jobs=2)
        rows = executor.map(fails_on_the_lane_task, payloads)
        assert [row["x"] for row in rows] == [0, 1]
        assert executor.retries == 1
        # With no retry left, the same attempt is the failure's last
        # error.
        (tmp_path / "terminal").mkdir()
        payloads = met(tmp_path / "terminal", [{"x": 0, "mode": mode},
                                               {"x": 1, "mode": mode}])
        with pytest.raises(WorkerFailureError) as excinfo:
            SweepExecutor(jobs=2, max_attempts=1).map(
                fails_on_the_lane_task, payloads
            )
        expected = "ValueError" if mode == "raise" else "pickle"
        assert expected in excinfo.value.last_error

    def test_a_terminal_failure_on_the_lane_names_its_shard(self, tmp_path):
        payloads = met(tmp_path, [{"x": 0, "mode": "raise"},
                                  {"x": 1, "mode": "raise"}])
        executor = SweepExecutor(jobs=2, max_attempts=1)
        with pytest.raises(WorkerFailureError) as excinfo:
            executor.map(fails_on_the_lane_task, payloads,
                         labels=["first", "second"])
        error = excinfo.value
        assert error.label == ["first", "second"][error.task_index]
        assert error.attempts == 1
        assert error.last_error == "ValueError: permanent failure"
        assert str(error) == (
            f"task {error.label} failed after 1 attempt(s): "
            "ValueError: permanent failure"
        )
        assert executor.tasks_run == 1 and executor.retries == 0

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_anchor_shard_scores_what_detect_report_scores(self, jobs):
        from repro.analysis.experiments import (
            LADDER_REPLENISH_PERIOD, LADDER_WINDOW_CYCLES, alone_base_runs,
            detect_suite, staircase_config,
        )
        from repro.security.detect import detect_report

        rows = detect_suite("gcc", FAST, scales=(1.0,), jobs=jobs)["rows"]
        [anchor] = [row for row in rows if row["label"] == "no-shaping"]
        [base] = alone_base_runs(["gcc"], FAST, SweepExecutor(), ["base"])
        spec = dataclasses.replace(
            FAST.spec, replenish_period=LADDER_REPLENISH_PERIOD
        )
        rate = len(base["gaps"]) / base["cycles_run"]
        in_process = detect_report(
            label="no-shaping",
            intrinsic_gaps=base["gaps"],
            observed_gaps=base["gaps"],
            spec=spec,
            target_frequencies=staircase_config(spec, rate).normalized(),
            seed=FAST.seed,
            window_cycles=LADDER_WINDOW_CYCLES,
            run_cycles=base["cycles_run"],
        )
        assert anchor["report_digest"] == in_process.digest()
        assert anchor["digest"] == base["digest"]

    def test_jobs_above_one_need_fork(self, monkeypatch):
        import multiprocessing

        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods",
            lambda: ["spawn", "forkserver"],
        )
        with pytest.raises(ConfigurationError, match="fork"):
            SweepExecutor(jobs=2)
        assert SweepExecutor(jobs=1).map(square_task, [{"x": 3}]) == [
            {"value": 9}
        ]

    def test_a_killed_worker_is_charged_and_its_shard_retried(self,
                                                               tmp_path):
        """A lane that dies mid-shard (``os._exit``, as the OOM killer
        would) is charged one attempt, its shard runs again in the
        calling process, and the sweep's bytes are those of ``jobs=1``."""
        from repro.obs.export import render_openmetrics

        points = [
            encode_point(["gcc"], FAST, noc_latency=latency)
            for latency in (1, 4)
        ]
        reference = SweepExecutor(jobs=1)
        expected = reference.map(noc_latency_task, points)
        executor = SweepExecutor(jobs=2)
        rows = executor.map(
            dies_on_the_lane_task,
            met(tmp_path, [{"point": point} for point in points]),
        )
        assert json.dumps(rows, sort_keys=True) == json.dumps(
            expected, sort_keys=True
        )
        assert executor.retries == 1
        # Only the retry count tells the two registries apart.
        assert render_openmetrics(executor.merged_registry()).replace(
            "parallel_retries 1", "parallel_retries 0"
        ) == render_openmetrics(reference.merged_registry())
        # With no retry left, the lane's death is the failure's last
        # error.
        (tmp_path / "terminal").mkdir()
        with pytest.raises(WorkerFailureError) as excinfo:
            SweepExecutor(jobs=2, max_attempts=1).map(
                dies_on_the_lane_task,
                met(tmp_path / "terminal",
                    [{"point": point} for point in points]),
            )
        assert excinfo.value.last_error == (
            "ChildProcessError: forked lane exited with code 3"
        )


class TestCacheHits:
    def test_second_sweep_runs_zero_simulations(self, tmp_path):
        """Warm-cache replay: identical output, zero task executions,
        verified through the executors' counters."""
        cold = SweepExecutor(jobs=1, seed=FAST.seed, cache=str(tmp_path))
        first = tradeoff_sweep("gcc", FAST, scales=(0.8,), executor=cold)
        assert cold.tasks_run > 0 and cold.tasks_cached == 0
        warm = SweepExecutor(jobs=1, seed=FAST.seed, cache=str(tmp_path))
        second = tradeoff_sweep("gcc", FAST, scales=(0.8,), executor=warm)
        assert second == first
        assert warm.tasks_run == 0
        assert warm.tasks_cached == cold.tasks_run

    def test_a_failed_sweep_keeps_the_shards_it_finished(self, tmp_path):
        """Results are cached as their shards resolve, so a sweep that
        dies part-way is resumed from the cache, not from scratch."""
        payloads = [{"x": 0}, {"x": 1}, {"x": 2, "fail": True}]
        failing = SweepExecutor(
            jobs=1, cache=str(tmp_path), max_attempts=1
        )
        with pytest.raises(WorkerFailureError):
            failing.map(fails_on_request_task, payloads, kind="resume")
        rerun = SweepExecutor(jobs=1, cache=str(tmp_path))
        rows = rerun.map(fails_on_request_task, payloads[:2], kind="resume")
        assert rows == [{"x": 0}, {"x": 1}]
        assert rerun.tasks_cached == 2 and rerun.tasks_run == 0
