"""Tests for repro.parallel.dispatch: the fault-tolerant multi-host path.

The load-bearing claims are the ISSUE-9 acceptance criteria: a sweep
executed (a) locally, (b) distributed over worker hosts, (c) distributed
with a host killed mid-sweep, and (d) with every host dead (degraded
local drain) produces byte-identical merged JSON and byte-identical
merged metrics exposition; and an interrupted sweep resumes from the
result cache without re-dispatching cached shards.

Worker hosts here run *in-process* (inline mode, one daemon thread per
host) so the full frame protocol, lease loop and chaos paths are
exercised over real sockets without subprocess management; the CI
``dispatch-smoke`` job covers the real multi-process topology.
"""

import contextlib
import dataclasses
import io
import json
import os
import socket
import tempfile
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import ExperimentDefaults
from repro.common.errors import (
    ConfigurationError,
    DispatchError,
    WorkerFailureError,
)
from repro.obs import diag
from repro.obs.export import render_openmetrics
from repro.parallel import (
    ChaosProxy,
    DispatchCoordinator,
    DispatchLedger,
    FrameCorruption,
    HostCrash,
    LinkStall,
    SlowHost,
    SweepExecutor,
    WorkerHost,
    parse_hosts,
)
from repro.parallel.tasks import encode_point, noc_latency_task
from repro.parallel.worker import resolve_task, task_spec
from repro.resilience.retry import RetryPolicy

SMALL = dataclasses.replace(ExperimentDefaults(), accesses=300, cycles=3000)

#: No-backoff policy: unit tests record requeues, they don't sleep.
FAST_RETRY = RetryPolicy(max_attempts=3, backoff_seconds=0.0)


def echo_task(payload):
    return {"x": payload["x"], "double": payload["x"] * 2}


def seeded_echo_task(payload, task_seed=None):
    return {"x": payload["x"], "task_seed": task_seed}


def always_fails_task(payload):
    raise ValueError("permanent failure")


def slow_echo_task(payload):
    time.sleep(payload.get("delay", 0.3))
    return {"x": payload["x"]}


def nan_task(payload):
    """Succeeds, with a value no frame can carry."""
    return {"v": float("nan")}


def flaky_echo_task(payload):
    """Fails on the first attempt, succeeds once the marker exists."""
    if not os.path.exists(payload["marker"]):
        with open(payload["marker"], "w", encoding="utf-8") as fh:
            fh.write("attempted")
        raise RuntimeError("transient failure")
    return {"x": payload["x"]}


@pytest.fixture(autouse=True)
def _clean_diag():
    diag.reset()
    yield
    diag.reset()


@contextlib.contextmanager
def worker_hosts(count, task_modules=(__name__,), **kwargs):
    """``count`` inline worker hosts serving on daemon threads."""
    import threading

    kwargs.setdefault("inline", True)
    hosts = []
    threads = []
    for _ in range(count):
        host = WorkerHost(task_modules=task_modules, **kwargs)
        host.bind()
        thread = threading.Thread(target=host.serve_forever, daemon=True)
        thread.start()
        hosts.append(host)
        threads.append(thread)
    try:
        yield hosts
    finally:
        for host in hosts:
            host.close()
        for thread in threads:
            thread.join(timeout=5.0)
            assert not thread.is_alive(), "close() left serve_forever running"


#: Every kind of lane a shard can run on.
LANE_KINDS = ("inline", "pool", "remote")


@contextlib.contextmanager
def lane_executor(kind, retry, task):
    """A SweepExecutor whose shards all run on one kind of lane: the
    calling thread, two slots of the warm pool (give it >= 2 shards),
    or one inline WorkerHost allowed to run ``task``'s module.  The
    pool kind sets a lease far above any test's run time: under a lease
    no shard runs on the calling thread, so every attempt crosses the
    pool whichever lane thread takes it."""
    if kind == "inline":
        yield SweepExecutor(jobs=1, retry=retry)
        return
    if kind == "pool":
        yield SweepExecutor(
            jobs=2, retry=dataclasses.replace(retry, timeout_seconds=60.0)
        )
        return
    with worker_hosts(1, task_modules=(task.__module__,)) as hosts:
        coordinator = DispatchCoordinator(
            addresses(hosts), retry=retry, lease_seconds=10.0
        )
        try:
            yield SweepExecutor(dispatch=coordinator)
        finally:
            coordinator.close()


def addresses(hosts):
    return [(h.host, h.port) for h in hosts]


def dead_address():
    """An address nothing is listening on."""
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return ("127.0.0.1", port)


def sweep_payloads():
    return [
        encode_point(["gcc"], SMALL, noc_latency=latency)
        for latency in (1, 2, 4, 8)
    ]


def run_scenario(payloads, jobs=1, dispatch=None, cache=None, seed=0):
    """One sweep run -> (merged results JSON bytes, metrics bytes, executor)."""
    executor = SweepExecutor(
        jobs=jobs, seed=seed, cache=cache, dispatch=dispatch
    )
    results = executor.map(noc_latency_task, payloads, kind="noc-latency")
    blob = json.dumps(results, sort_keys=True)
    metrics = render_openmetrics(executor.merged_registry())
    return blob, metrics, executor


class TestParseHosts:
    def test_parses_spec(self):
        assert parse_hosts("a:1, b:2,") == [("a", 1), ("b", 2)]

    @pytest.mark.parametrize("spec", ["", "justhost", "h:notaport", ":9"])
    def test_rejects_bad_specs(self, spec):
        with pytest.raises(ConfigurationError):
            parse_hosts(spec)


class TestTaskResolution:
    def test_task_spec_roundtrip(self):
        spec = task_spec(echo_task)
        assert spec == f"{__name__}:echo_task"
        assert resolve_task(spec, (__name__,)) is echo_task

    def test_module_not_in_allowlist(self):
        with pytest.raises(ConfigurationError, match="allowlist"):
            resolve_task("os:system", (__name__,))

    def test_missing_attribute(self):
        with pytest.raises(ConfigurationError, match="no attribute"):
            resolve_task(f"{__name__}:no_such_task", (__name__,))

    def test_non_addressable_task_rejected(self):
        with pytest.raises(ConfigurationError, match="module-level"):
            task_spec(lambda payload: payload)


class TestDispatchBasics:
    def test_results_match_local_run(self):
        payloads = [{"x": i} for i in range(6)]
        local = SweepExecutor(jobs=1).map(echo_task, payloads)
        with worker_hosts(2) as hosts:
            coordinator = DispatchCoordinator(
                addresses(hosts), retry=FAST_RETRY, lease_seconds=10.0
            )
            executor = SweepExecutor(dispatch=coordinator)
            dispatched = executor.map(echo_task, payloads)
            coordinator.close()
        assert dispatched == local
        assert executor.tasks_run == 6
        assert not coordinator.degraded
        doc = coordinator.registry.as_dict()
        assert doc["dispatch.shards_completed"] == 6
        assert doc["dispatch.degraded"] == 0
        assert coordinator.ledger.counts()["completed"] == 6

    def test_task_seeds_travel_to_workers(self):
        payloads = [{"x": i} for i in range(4)]
        local = SweepExecutor(jobs=1, seed=123).map(seeded_echo_task, payloads)
        with worker_hosts(2) as hosts:
            coordinator = DispatchCoordinator(
                addresses(hosts), retry=FAST_RETRY, lease_seconds=10.0
            )
            dispatched = SweepExecutor(seed=123, dispatch=coordinator).map(
                seeded_echo_task, payloads
            )
            coordinator.close()
        assert dispatched == local
        assert all(r["task_seed"] is not None for r in dispatched)

    def test_disallowed_task_fails_in_band(self):
        """A worker refusing a task — or unable to frame its result —
        is a charged task failure: not a hang, not a dead host."""
        for task, modules, match in (
            (echo_task, ("repro.parallel.tasks",), "allowlist"),
            (nan_task, (__name__,), "non-finite float"),
        ):
            with worker_hosts(1, task_modules=modules) as hosts:
                coordinator = DispatchCoordinator(
                    addresses(hosts),
                    retry=RetryPolicy(max_attempts=2, backoff_seconds=0.0),
                    lease_seconds=10.0,
                )
                executor = SweepExecutor(dispatch=coordinator)
                with pytest.raises(WorkerFailureError, match=match):
                    executor.map(task, [{"x": 1}])
                coordinator.close()
                assert hosts[0].shards_failed == 2, match
            doc = coordinator.registry.as_dict()
            assert doc["dispatch.task_failures"] == 2, match
            assert doc["dispatch.hosts_retired"] == 0, match
            assert not coordinator.degraded, match

    def test_task_exception_exhausts_attempt_budget(self):
        with worker_hosts(1) as hosts:
            coordinator = DispatchCoordinator(
                addresses(hosts),
                retry=RetryPolicy(max_attempts=2, backoff_seconds=0.0),
                lease_seconds=10.0,
            )
            executor = SweepExecutor(dispatch=coordinator)
            with pytest.raises(WorkerFailureError) as excinfo:
                executor.map(always_fails_task, [{"x": 1}])
            coordinator.close()
        assert excinfo.value.attempts == 2
        assert "permanent failure" in str(excinfo.value)
        doc = coordinator.registry.as_dict()
        assert doc["dispatch.task_failures"] == 2
        assert coordinator.ledger.counts()["failed"] == 1

    def test_pooled_worker_sends_heartbeats(self):
        """A host whose pool outlives the heartbeat interval renews its
        lease instead of losing it."""
        with worker_hosts(
            1, inline=False, jobs=1, heartbeat_seconds=0.05
        ) as hosts:
            coordinator = DispatchCoordinator(
                addresses(hosts), retry=FAST_RETRY, lease_seconds=10.0
            )
            result = SweepExecutor(dispatch=coordinator).map(
                slow_echo_task, [{"x": 1, "delay": 0.3}]
            )
            coordinator.close()
        assert result == [{"x": 1}]
        doc = coordinator.registry.as_dict()
        assert doc["dispatch.heartbeats"] >= 1
        assert doc["dispatch.lease_expiries"] == 0


class TestByteIdentityMatrix:
    """ISSUE-9 acceptance: scenarios (a)-(d) merge byte-identically."""

    def test_dispatch_matrix(self, tmp_path):
        payloads = sweep_payloads()
        ref_blob, ref_metrics, _ = run_scenario(payloads, jobs=1)

        # (a) local pooled run
        pooled_blob, pooled_metrics, _ = run_scenario(payloads, jobs=2)
        assert pooled_blob == ref_blob
        assert pooled_metrics == ref_metrics

        # (b) two-host dispatch
        with worker_hosts(2, task_modules=("repro.parallel.tasks",)) as hosts:
            coordinator = DispatchCoordinator(
                addresses(hosts), retry=FAST_RETRY, lease_seconds=30.0,
                ledger=str(tmp_path / "ledger.json"),
            )
            two_blob, two_metrics, executor = run_scenario(
                payloads, dispatch=coordinator
            )
            coordinator.close()
        assert two_blob == ref_blob
        assert two_metrics == ref_metrics
        assert executor.tasks_run == len(payloads)
        assert not coordinator.degraded
        ledger = DispatchLedger.load(str(tmp_path / "ledger.json"))
        assert ledger.counts()["completed"] == len(payloads)

        # (c) two-host dispatch, one host crashed mid-sweep: the shard
        # re-dispatches to the survivor, nothing degrades, bytes hold.
        sleeps = []
        with worker_hosts(2, task_modules=("repro.parallel.tasks",)) as hosts:
            chaos = ChaosProxy([HostCrash(shard_index=1)])
            coordinator = DispatchCoordinator(
                addresses(hosts), lease_seconds=30.0, chaos=chaos,
                sleep=sleeps.append,
            )
            crash_blob, crash_metrics, _ = run_scenario(
                payloads, dispatch=coordinator
            )
            coordinator.close()
        assert crash_blob == ref_blob
        assert crash_metrics == ref_metrics
        assert not coordinator.degraded
        assert chaos.log == [
            {"spec": "HostCrash", "shard": 1, "host": chaos.log[0]["host"]}
        ]
        doc = coordinator.registry.as_dict()
        assert doc["dispatch.hosts_retired"] == 1
        assert doc["dispatch.redispatches"] == 1
        assert doc["dispatch.shards_completed"] == len(payloads)
        # the re-dispatch paced itself with the policy's first backoff
        assert sleeps == [
            coordinator.retry.backoff_delay(1, rng=None)
        ]

        # (d) every host dead: degraded local drain, bytes still hold.
        diag.reset()
        coordinator = DispatchCoordinator(
            [dead_address(), dead_address()],
            retry=FAST_RETRY, lease_seconds=5.0, connect_timeout=0.2,
        )
        dead_blob, dead_metrics, executor = run_scenario(
            payloads, dispatch=coordinator
        )
        coordinator.close()
        assert dead_blob == ref_blob
        assert dead_metrics == ref_metrics
        assert coordinator.degraded
        doc = coordinator.registry.as_dict()
        assert doc["dispatch.degraded"] == 1
        assert doc["dispatch.local_fallback_shards"] == len(
            payloads
        )
        assert coordinator.ledger.counts()["local"] == len(payloads)
        assert diag.count("dispatch.degraded") == 1
        # degraded shards drained through the local paths exactly once
        assert executor.tasks_run == len(payloads)
        assert diag.count("parallel.task_done") == len(payloads)


class TestChaosPaths:
    def run_with_chaos(self, chaos, n_hosts=2):
        payloads = [{"x": i} for i in range(4)]
        local = SweepExecutor(jobs=1).map(echo_task, payloads)
        with worker_hosts(n_hosts) as hosts:
            coordinator = DispatchCoordinator(
                addresses(hosts), retry=FAST_RETRY, lease_seconds=10.0,
                chaos=chaos,
            )
            dispatched = SweepExecutor(dispatch=coordinator).map(
                echo_task, payloads
            )
            coordinator.close()
        assert dispatched == local
        return coordinator

    def test_link_stall_expires_lease(self):
        chaos = ChaosProxy([LinkStall(shard_index=2)])
        coordinator = self.run_with_chaos(chaos)
        doc = coordinator.registry.as_dict()
        assert doc["dispatch.lease_expiries"] == 1
        assert doc["dispatch.hosts_retired"] == 1
        assert not coordinator.degraded
        assert [entry["spec"] for entry in chaos.log] == ["LinkStall"]

    def test_corrupt_frame_never_merges(self):
        chaos = ChaosProxy([FrameCorruption(shard_index=0)])
        coordinator = self.run_with_chaos(chaos)
        doc = coordinator.registry.as_dict()
        assert doc["dispatch.transport_errors"] == 1
        assert doc["dispatch.redispatches"] == 1
        assert not coordinator.degraded

    def test_slow_host_keeps_lease_via_heartbeats(self):
        chaos = ChaosProxy([SlowHost(shard_index=1, heartbeats=3)])
        coordinator = self.run_with_chaos(chaos, n_hosts=1)
        doc = coordinator.registry.as_dict()
        assert doc["dispatch.heartbeats"] == 3
        assert doc["dispatch.lease_expiries"] == 0
        assert doc["dispatch.hosts_retired"] == 0

    def test_unknown_spec_rejected(self):
        with pytest.raises(ConfigurationError):
            ChaosProxy(["not a spec"])

    def test_degraded_without_local_runner_raises(self):
        coordinator = DispatchCoordinator(
            [dead_address()], retry=FAST_RETRY, connect_timeout=0.2
        )

        class Shard:
            index = 0
            payload = {"x": 1}
            label = "s0"
            task_seed = None
            digest = None

        with pytest.raises(DispatchError, match="no local lane"):
            coordinator.run(echo_task, [Shard()])
        assert coordinator.degraded

    def test_local_lane_paces_retries_like_a_remote_one(self, tmp_path):
        """Local-lane twin of matrix scenario (c): a charged attempt on
        a last-resort lane sleeps the policy's first backoff, computed
        where the re-dispatch after a lost host computes it."""
        sleeps = []
        coordinator = DispatchCoordinator(
            [dead_address()], connect_timeout=0.2, sleep=sleeps.append
        )
        executor = SweepExecutor(dispatch=coordinator)
        payload = {"x": 5, "marker": str(tmp_path / "marker")}
        assert executor.map(flaky_echo_task, [payload]) == [{"x": 5}]
        assert coordinator.degraded
        assert sleeps == [coordinator.retry.backoff_delay(1, rng=None)]
        assert executor.retries == 1
        assert diag.count("parallel.task_retry") == 1
        assert diag.count("parallel.task_done") == 1
        doc = coordinator.registry.as_dict()
        assert doc["dispatch.task_failures"] == 1
        assert doc["dispatch.redispatches"] == 1
        assert doc["dispatch.local_fallback_shards"] == 1
        assert coordinator.ledger.counts()["local"] == 1


class TestCacheResume:
    def test_resume_skips_cached_shards(self, tmp_path):
        """An interrupted sweep re-run serves completed shards from the
        cache: they are never dispatched, and the counters prove it."""
        payloads = [{"x": i} for i in range(4)]
        cache_dir = str(tmp_path / "cache")
        # "Interrupted" run: only the first two shards completed.
        SweepExecutor(jobs=1, cache=cache_dir).map(
            echo_task, payloads[:2], kind="echo"
        )
        diag.reset()

        with worker_hosts(2) as hosts:
            coordinator = DispatchCoordinator(
                addresses(hosts), retry=FAST_RETRY, lease_seconds=10.0,
                ledger=str(tmp_path / "ledger.json"),
            )
            executor = SweepExecutor(cache=cache_dir, dispatch=coordinator)
            resumed = executor.map(echo_task, payloads, kind="echo")
            coordinator.close()

        assert resumed == SweepExecutor(jobs=1).map(echo_task, payloads)
        assert executor.tasks_cached == 2
        assert executor.tasks_run == 2
        assert diag.count("parallel.cache_hit") == 2
        doc = coordinator.registry.as_dict()
        assert doc["dispatch.cached_shards"] == 2
        assert doc["dispatch.shards_dispatched"] == 2
        ledger = DispatchLedger.load(str(tmp_path / "ledger.json"))
        counts = ledger.counts()
        assert counts["cached"] == 2
        assert counts["completed"] == 2

    def test_warm_cache_skips_dispatch_entirely(self, tmp_path):
        payloads = [{"x": i} for i in range(3)]
        cache_dir = str(tmp_path / "cache")
        with worker_hosts(1) as hosts:
            coordinator = DispatchCoordinator(
                addresses(hosts), retry=FAST_RETRY, lease_seconds=10.0
            )
            first = SweepExecutor(cache=cache_dir, dispatch=coordinator).map(
                echo_task, payloads, kind="echo"
            )
            coordinator.close()
        # Second run: fully warm cache; the dead coordinator is never
        # consulted because no shard misses.
        coordinator = DispatchCoordinator(
            [dead_address()], retry=FAST_RETRY, connect_timeout=0.2
        )
        executor = SweepExecutor(cache=cache_dir, dispatch=coordinator)
        second = executor.map(echo_task, payloads, kind="echo")
        assert second == first
        assert executor.tasks_cached == 3
        assert executor.tasks_run == 0
        doc = coordinator.registry.as_dict()
        assert doc["dispatch.shards_dispatched"] == 0


class TestLedger:
    def test_record_and_load_roundtrip(self, tmp_path):
        path = str(tmp_path / "ledger.json")
        ledger = DispatchLedger(path)
        ledger.begin("echo", ["h:1", "h:2"], shard_count=2)
        ledger.record(0, "queued", label="s0")
        ledger.record(0, "leased", label="s0", host="h:1", attempts=1)
        ledger.record(0, "completed", label="s0", host="h:1", attempts=1)
        ledger.record(1, "cached", label="s1", digest="abc123")
        loaded = DispatchLedger.load(path)
        assert loaded.states() == {0: "completed", 1: "cached"}
        assert loaded.counts()["completed"] == 1
        assert loaded.doc["hosts"] == ["h:1", "h:2"]
        assert not loaded.doc["degraded"]

    def test_rejects_unknown_state(self):
        with pytest.raises(ConfigurationError, match="shard state"):
            DispatchLedger(None).record(0, "vanished")

    def test_load_rejects_non_ledger(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{}", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="not a dispatch ledger"):
            DispatchLedger.load(str(path))

    def test_load_rejects_bad_schema(self, tmp_path):
        path = tmp_path / "ledger.json"
        path.write_text(
            json.dumps({"ledger_schema": 999}), encoding="utf-8"
        )
        with pytest.raises(ConfigurationError, match="schema"):
            DispatchLedger.load(str(path))

    def test_missing_file_fails_typed(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            DispatchLedger.load(str(tmp_path / "nope.json"))

    @settings(max_examples=100, deadline=None)
    @given(raw=st.binary(max_size=64))
    @example(raw=b"\xff\xfe")
    @example(raw=b'{"ledger_schema": 1, "shards": [1, 2]}')
    @example(raw=b'{"ledger_schema": 1, "shards": {"x": {}}}')
    @example(raw=b'{"ledger_schema": 1, "shards": {"0": {"state": []}}}')
    def test_status_of_any_bytes_is_a_usage_error(self, raw):
        from repro.cli import main

        err = io.StringIO()
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "ledger.json")
            with open(path, "wb") as fh:
                fh.write(raw)
            with contextlib.redirect_stderr(err):
                status = main(["dispatch", "status", "--ledger", path])
        # 0/1 only if the bytes happen to spell a well-formed ledger.
        assert status in (0, 1, 2)
        if status == 2:
            assert err.getvalue().startswith("error: ")
            assert err.getvalue().count("\n") == 1


class TestCoordinatorValidation:
    def test_needs_hosts(self):
        with pytest.raises(ConfigurationError):
            DispatchCoordinator([])

    def test_needs_positive_lease(self):
        with pytest.raises(ConfigurationError):
            DispatchCoordinator([("h", 1)], lease_seconds=0.0)

    def test_accepts_spec_string(self):
        coordinator = DispatchCoordinator("a:1,b:2")
        assert [h.name for h in coordinator._hosts] == ["a:1", "b:2"]
