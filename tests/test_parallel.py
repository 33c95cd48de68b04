"""Tests for repro.parallel: executor determinism, caching, retry.

The load-bearing claims here are the ISSUE-5 acceptance criteria:
``jobs=1`` and ``jobs=N`` produce byte-identical merged output (and
identical per-point report digests), and a warm cache replays a sweep
with zero simulations.  Pool workers are forked from the calling
process at ``_boot_pool``, which is safe because the inline lane (the
reference every ``jobs`` value must match) runs in that same process;
docs/parallel.md has the design and its measurements (a cold
``--jobs 2`` Fig 2 sweep runs 43 % more simulated cycles per second
than it did with ``spawn`` workers, on a 2-CPU box).  A task still
reaches a worker as a pickled reference, so the toy tasks live at
module scope.
"""

import dataclasses
import json
import os
import signal
import sys
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
from repro.obs import diag
from repro.parallel import (
    CACHE_SCHEMA,
    ResultCache,
    SweepExecutor,
    cache_key,
    config_digest,
)
from repro.parallel.executor import ShardLoop, _InlineLane, _PoolLane, _Shard
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


def suicide_once_task(payload):
    """SIGKILLs its own pool worker the first time a worker runs it.

    Models the OOM killer taking a worker mid-shard: the marker file is
    written *before* the kill, so retries (on the rebuilt pool) see it
    and succeed.  In the calling process (``payload["parent"]``) it
    never kills: it waits until a worker has died and then lingers, so
    a pool lane, not the parent, picks up the retry.
    """
    marker = payload["marker"]
    if os.getpid() == payload["parent"]:
        deadline = time.monotonic() + 30.0
        while not os.path.exists(marker) and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.2)
    elif not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8") as fh:
            fh.write("dying")
        os.kill(os.getpid(), signal.SIGKILL)
    return {"survived": payload["x"]}


def _nested_map_hung(signum, frame):
    raise TimeoutError("the nested map submitted into the caller's pool")


def nested_map_task(payload):
    """Maps again with ``jobs=2`` from inside the task.

    In a pool worker that map must build a pool of its own: the copy
    of the caller's pool the fork left behind has no manager thread,
    so a submit into it would never resolve (an alarm turns that hang
    into the task's error).  A pool the nested map built is shut down
    before the task returns, so its workers do not outlive it.
    """
    from repro.parallel import executor as executor_mod

    inherited = executor_mod._POOL
    previous = signal.signal(signal.SIGALRM, _nested_map_hung)
    signal.alarm(30)
    try:
        return SweepExecutor(jobs=2).map(
            square_task, [{"x": x} for x in range(payload["n"])]
        )
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        pool = executor_mod._POOL
        if pool is not inherited:
            executor_mod._discard_pool()
            pool.shutdown(wait=True)


def pid_task(payload):
    """Lingers long enough for every lane to take a shard."""
    time.sleep(0.05)
    return os.getpid()


#: Every kind of lane a shard can run on: the failure matrix's columns.
LANE_KINDS = ("inline", "pool")


class _PoolColumn(SweepExecutor):
    """``map`` with every shard on a slot of the warm pool.

    ``SweepExecutor.map`` always keeps the calling thread as a lane, so
    a failing shard could spend every attempt there and never cross
    the pool.  This loop has two pool lanes and no other, and reports
    to the executor exactly as ``map``'s own loop does."""

    def map(self, fn, payloads, labels=None):
        shards = [
            _Shard(index=i, payload=payload,
                   label=labels[i] if labels else f"{fn.__name__}[{i}]",
                   task_seed=None)
            for i, payload in enumerate(payloads)
        ]
        lanes = [_PoolLane(fn, workers=2) for _ in range(2)]
        results = ShardLoop(
            shards, lanes, self.max_attempts, observers=[self._observe]
        ).run()
        return [results[shard.index] for shard in shards]


def lane_executor(kind, max_attempts=2):
    """An executor whose shards all run on one kind of lane: the
    calling thread (``inline``) or slots of the warm pool (``pool``)."""
    if kind == "inline":
        return SweepExecutor(jobs=1, max_attempts=max_attempts)
    return _PoolColumn(max_attempts=max_attempts)


@pytest.fixture(autouse=True)
def _clean_diag():
    diag.reset()
    yield
    diag.reset()


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
            diag.reset()
            payloads = [
                {"x": i, "marker": str(tmp_path / f"{kind}-{i}")}
                for i in range(2)
            ]
            executor = lane_executor(kind)
            results = executor.map(flaky_echo_task, payloads)
            assert results == [{"x": 0}, {"x": 1}], kind
            assert executor.retries == 2, kind
            assert diag.count("parallel.task_retry") == 2, kind
            assert diag.count("parallel.task_done") == 2, kind

    def test_exhausted_retries_raise_with_shard_identity(self):
        """The budget ends in the same WorkerFailureError, field for
        field, whichever lane ran the shard."""
        payloads = [{"x": 1}, {"x": 2, "fail": True}]
        for kind in LANE_KINDS:
            diag.reset()
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
            assert diag.count("parallel.task_retry") == 1, kind
            assert diag.count("parallel.task_done") == 1, kind

    def test_lowest_failing_shard_is_raised(self):
        """Several terminal failures: the lowest shard index wins, as
        in-order collection would have it, however the lanes race."""
        executor = SweepExecutor(jobs=2, max_attempts=2)
        with pytest.raises(WorkerFailureError) as excinfo:
            executor.map(always_fails_task, [{"x": x} for x in range(3)])
        assert excinfo.value.task_index == 0

    def test_lifecycle_events_emitted(self):
        rows = SweepExecutor().map(thread_task, [{"x": 1}, {"x": 2}])
        # jobs=1 is the calling thread itself: tracebacks, cProfile and
        # span recorders see the tasks nested under map().
        assert rows == [{"thread": threading.get_ident()}] * 2
        assert diag.count("parallel.task_submit") == 2
        assert diag.count("parallel.task_done") == 2
        events = diag.recent("parallel.task_done")
        assert [e.args_dict["task"] for e in events] == [0, 1]


class TestShardLoopStress:
    def test_many_lanes_lose_no_update(self):
        """More lanes than cores and a shortened switch interval: every
        shard still resolves exactly once and every transition is
        counted exactly once (a lost update breaks the totals)."""
        attempted = set()

        def every_third_fails_once(payload):
            x = payload["x"]
            time.sleep(0)  # yield: interleave the lanes
            if x % 3 == 0 and x not in attempted:
                attempted.add(x)
                raise RuntimeError("transient failure")
            return x

        shards = [
            _Shard(index=i, payload={"x": i}, label=f"s{i}", task_seed=None)
            for i in range(600)
        ]
        executor = SweepExecutor()
        loop = ShardLoop(
            shards, [_InlineLane(every_third_fails_once) for _ in range(8)],
            2, observers=[executor._observe],
        )
        outcome = {}
        runner = threading.Thread(
            target=lambda: outcome.update(loop.run()), daemon=True
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            runner.start()
            runner.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive(), "shard loop deadlocked"
        assert outcome == {i: i for i in range(600)}
        assert executor.tasks_run == 600
        assert executor.retries == 200


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
    """``jobs=N`` is N simulations in flight: the calling thread plus
    N-1 workers of the warm pool."""

    def test_calling_process_and_one_worker_share_the_shards(self):
        from repro.parallel import executor as executor_mod

        executor_mod._discard_pool()
        pids = SweepExecutor(jobs=2).map(pid_task, [{}] * 6)
        assert os.getpid() in pids
        assert len(set(pids)) == 2

    def test_pool_column_never_runs_in_the_calling_process(self):
        """What the failure matrix's pool column relies on."""
        pids = lane_executor("pool").map(pid_task, [{}] * 4)
        assert os.getpid() not in pids

    def test_single_shard_runs_inline_and_boots_the_pool(self):
        from repro.parallel import executor as executor_mod

        executor_mod._discard_pool()
        rows = SweepExecutor(jobs=3).map(thread_task, [{"x": 1}])
        assert rows == [{"thread": threading.get_ident()}]
        assert executor_mod._POOL_WORKERS == 2
        assert len(executor_mod._POOL._processes) == 2


class TestForkedPool:
    """Pool workers are forked from the calling process (docs/parallel.md,
    contract item 1)."""

    def test_a_task_that_maps_again_gets_a_pool_of_its_own(self):
        payloads = [{"n": 3}, {"n": 4}]
        expected = SweepExecutor(jobs=1).map(nested_map_task, payloads)
        pooled = lane_executor("pool", max_attempts=1).map(
            nested_map_task, payloads
        )
        assert pooled == expected
        assert expected[1] == [{"value": x * x} for x in range(4)]

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


class TestBrokenPoolRebuild:
    def test_killed_pool_worker_rebuilds_and_preserves_output(self, tmp_path):
        """A pool worker SIGKILLed mid-shard breaks the warm pool; the
        executor must rebuild it, retry only the affected shards, and
        still merge the jobs-invariant output."""
        from repro.parallel import executor as executor_mod

        marker = str(tmp_path / "killed")
        payloads = [
            {"x": i, "marker": marker, "parent": os.getpid()}
            for i in range(6)
        ]
        executor = SweepExecutor(jobs=2)
        results = executor.map(suicide_once_task, payloads)
        # merged output identical to what any healthy run produces
        assert results == [{"survived": i} for i in range(6)]
        assert os.path.exists(marker)
        # at least one shard was re-run after the pool broke...
        assert executor.retries >= 1
        assert diag.count("parallel.task_retry") == executor.retries
        # ...on a pool that was rebuilt, not the broken one
        assert executor_mod._POOL is not None
        assert not getattr(executor_mod._POOL, "_broken", False)


class TestCacheHits:
    def test_second_sweep_runs_zero_simulations(self, tmp_path):
        """Warm-cache replay: identical output, zero task executions,
        verified through the diagnostics ring's event counts."""
        first = tradeoff_sweep(
            "gcc", FAST, scales=(0.8,), jobs=1, cache_dir=str(tmp_path)
        )
        first_runs = diag.count("parallel.task_done")
        assert first_runs > 0
        diag.reset()
        second = tradeoff_sweep(
            "gcc", FAST, scales=(0.8,), jobs=1, cache_dir=str(tmp_path)
        )
        assert second == first
        assert diag.count("parallel.task_done") == 0
        assert diag.count("parallel.cache_hit") == first_runs

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
