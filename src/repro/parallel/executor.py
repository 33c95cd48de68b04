"""Deterministic fan-out of independent simulation points.

:class:`SweepExecutor` runs a list of tasks — module-level functions
applied to payloads — and merges the results **in submission order**.
Combined with the facts that every task is a pure function of its
payload and that per-task RNG substreams are derived from the
submission index alone
(:meth:`~repro.common.rng.DeterministicRng.substream`), the merged
output is bit-identical wherever the tasks ran: parallelism and
placement are execution details, never observable ones.
docs/parallel.md states the full determinism contract.

Lanes and the shard loop
------------------------
A *lane* executes one shard at a time: the calling process, or a
process forked from it for one ``map``.  ``jobs=N`` means N
simulations in flight: once a ``map`` knows which shards it has to run
(cache hits never reach a lane), :class:`ShardLoop` forks
``min(N, shards) - 1`` lanes, and those and the calling process each
take the next shard from one counter in shared memory, so uneven tasks
balance themselves and a lane never waits for the calling process to
hand it work.  A forked lane sends ``(position, ok, result or error)``
back on its own pipe; the calling process collects those between its
own shards and at the end, and reaps every lane before ``map``
returns or raises.  ``jobs=1`` (or a single shard) forks nothing.

Forking is safe because of what the calling process already is: it is
a lane too, so it runs tasks with its warm imports, memoised traces
and all, and it is the reference every ``jobs`` value must match byte
for byte.  A lane forked from it holds no state a task could read that
the reference lane did not, and it inherits the payloads, so nothing
but results is pickled.  Where ``fork`` does not exist, ``jobs > 1``
is refused.

:class:`ShardLoop` is the only way a shard ever runs — one counter,
one attempt count per shard, one place a
:class:`~repro.common.errors.WorkerFailureError` is built — so what a
failed attempt costs does not depend on where it ran (the failure
matrix is in docs/parallel.md).  ``SweepExecutor.map`` is what
surrounds the loop: seeds, the content-addressed result cache
(:mod:`repro.parallel.cache` — a task whose input digest already has a
stored result is not run at all), and the merge of per-shard metrics
registries.  What a map did is counted on the executor
(``tasks_run``, ``tasks_cached``, ``retries``); a terminal failure
carries its last error (:attr:`WorkerFailureError.last_error`).
"""

from __future__ import annotations

import contextlib
import functools
import gc
import inspect
import multiprocessing
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence

from repro.common.errors import ConfigurationError, WorkerFailureError
from repro.common.rng import DeterministicRng
from repro.parallel.cache import ResultCache, cache_key, config_digest


def _call_task(fn: Callable[..., Any], payload: Any,
               task_seed: Optional[int]) -> Any:
    if task_seed is None:
        return fn(payload)
    return fn(payload, task_seed=task_seed)


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _wants_task_seed(fn: Callable[..., Any]) -> bool:
    """Does ``fn`` declare a ``task_seed`` keyword parameter?"""
    try:
        parameters = inspect.signature(fn).parameters
    except (TypeError, ValueError):
        return False
    return "task_seed" in parameters


@dataclass
class _Shard:
    """Parent-side bookkeeping for one submitted task."""

    index: int
    payload: Any
    label: str
    task_seed: Optional[int]
    digest: Optional[str] = None


@dataclass
class _Pending:
    """One shard's way through the loop (its submission bookkeeping,
    the :class:`_Shard`, never changes here)."""

    shard: _Shard
    charged: int = 0  # failed attempts counted against max_attempts


class ShardLoop:
    """Take → run → resolve or charge: how every shard of a map runs.

    One loop is one run: ``run()`` forks ``lanes - 1`` lanes beside the
    calling process and every lane takes the next *position* (index
    into ``shards``) from one shared counter until it is spent.  An
    attempt that fails — the task raised, its result could not be
    pickled, or a forked lane died under it (EOF on its pipe) — is
    charged against ``max_attempts`` and the shard is run again in the
    calling process; at the budget it becomes a
    :class:`WorkerFailureError`.  The first terminal failure spends the
    counter, so shards above it that no lane had taken never run;
    shards below it still run to their own conclusion, and with
    several terminal failures the lowest shard index is raised.  A
    dead lane is not replaced: the lanes left, the calling process
    always among them, carry the rest.

    ``observe(event, pending, **info)`` is told of each transition —
    ``"done"`` (``result``) and ``"charged"`` (``error``,
    ``terminal``) — in the calling process.
    """

    def __init__(
        self,
        fn: Callable[..., Any],
        shards: Sequence[_Shard],
        lanes: int,
        max_attempts: int,
        observe: Callable[..., None],
    ) -> None:
        self.fn = fn
        self.max_attempts = max_attempts
        self._observe = observe
        self._pending = [_Pending(shard) for shard in shards]
        self._lanes = lanes
        # Positions at or above the lowest terminal failure are abandoned.
        self._limit = len(shards)
        self._retry: Deque[int] = deque()
        self._results: Dict[int, Any] = {}  # position -> result
        self._failures: Dict[int, WorkerFailureError] = {}
        # _held[0] is the next untaken position; _held[k] the position
        # forked lane k took last (-1: none yet).
        if lanes > 1:
            context = multiprocessing.get_context("fork")
            self._held: Any = context.RawArray("q", [0] + [-1] * (lanes - 1))
            self._lock: Any = context.Lock()
        else:
            self._held, self._lock = [0], contextlib.nullcontext()

    def run(self) -> Dict[int, Any]:
        """Run every shard; index -> result, or raise the lowest
        terminal failure.  No forked lane outlives the call."""
        lanes: Dict[Any, Any] = {}  # read end of a lane's pipe -> (k, process)
        try:
            self._fork(lanes)
            while True:
                self._collect(lanes, timeout=0)
                position = self._retry.popleft() if self._retry else self._take(0)
                if position is not None:
                    self._run_here(position)
                elif lanes:
                    self._collect(lanes, timeout=None)
                else:
                    break
        finally:
            for reader, (_, process) in lanes.items():
                process.kill()
                process.join()
                reader.close()
        if self._failures:
            raise self._failures[min(self._failures)]
        return {self._pending[p].shard.index: value
                for p, value in self._results.items()}

    def _fork(self, lanes: Dict[Any, Any]) -> None:
        context = multiprocessing.get_context("fork")
        # Frozen objects are never traversed by a lane's collector, so
        # the pages a lane shares with the calling process stay shared.
        gc.freeze()
        try:
            for k in range(1, self._lanes):
                reader, writer = context.Pipe(duplex=False)
                process = context.Process(
                    target=self._serve, args=(k, writer), name=f"lane-{k}"
                )
                process.start()
                # Only lane k holds the write end: its exit is EOF.
                writer.close()
                lanes[reader] = (k, process)
        finally:
            gc.unfreeze()

    def _take(self, lane: int) -> Optional[int]:
        """The next untaken position, or ``None`` once the counter is
        spent; a forked lane records the position it took."""
        with self._lock:
            position = self._held[0]
            if position >= len(self._pending):
                return None
            self._held[0] = position + 1
            if lane:
                self._held[lane] = position
        return position

    def _serve(self, lane: int, writer: Any) -> None:
        """A forked lane's whole life: shards until the counter is spent."""
        while True:
            position = self._take(lane)
            if position is None:
                return
            shard = self._pending[position].shard
            try:
                value = _call_task(self.fn, shard.payload, shard.task_seed)
                writer.send((position, True, value))
            # A pickling failure writes nothing, so the error can follow.
            except Exception as exc:  # noqa: BLE001 — charged by the calling process
                writer.send((position, False, _describe(exc)))

    def _run_here(self, position: int) -> None:
        shard = self._pending[position].shard
        try:
            value = _call_task(self.fn, shard.payload, shard.task_seed)
        except Exception as exc:  # noqa: BLE001 — the boundary this exists for
            self._charge(position, _describe(exc), exc)
        else:
            self._resolve(position, value)

    def _collect(self, lanes: Dict[Any, Any],
                 timeout: Optional[float]) -> None:
        """Resolve or charge everything the forked lanes have sent;
        ``timeout=None`` first waits for at least one message."""
        ready = wait(list(lanes), timeout)
        while ready:
            for reader in ready:
                self._receive(lanes, reader)
            ready = wait(list(lanes), 0)

    def _receive(self, lanes: Dict[Any, Any], reader: Any) -> None:
        try:
            position, ok, value = reader.recv()
        except EOFError:
            lane, process = lanes.pop(reader)
            reader.close()
            process.join()
            # Messages arrive in order, so a held position with no
            # outcome yet was in flight when the lane died.
            held = self._held[lane]
            if (held >= 0 and held not in self._results
                    and not self._pending[held].charged):
                self._charge(held, f"ChildProcessError: forked lane "
                                   f"exited with code {process.exitcode}")
            return
        if ok:
            self._resolve(position, value)
        else:
            self._charge(position, value)

    def _resolve(self, position: int, value: Any) -> None:
        self._results[position] = value
        self._observe("done", self._pending[position], result=value)

    def _charge(self, position: int, error: str,
                cause: Optional[BaseException] = None) -> None:
        if position > self._limit:
            return  # abandoned
        pending = self._pending[position]
        pending.charged += 1
        terminal = pending.charged >= self.max_attempts
        self._observe("charged", pending, error=error, terminal=terminal)
        if not terminal:
            self._retry.append(position)
            return
        shard = pending.shard
        failure = WorkerFailureError(
            f"task {shard.label} failed after {pending.charged} "
            f"attempt(s): {error}",
            task_index=shard.index,
            label=shard.label,
            attempts=pending.charged,
            last_error=error,
        )
        failure.__cause__ = cause
        self._failures[position] = failure
        self._limit = min(self._limit, position)
        self._retry = deque(p for p in self._retry if p < self._limit)
        with self._lock:  # spend the counter
            self._held[0] = len(self._pending)


class SweepExecutor:
    """Order-preserving, cache-aware parallel map over sweep points.

    Parameters
    ----------
    jobs:
        Simulations in flight.  ``1`` (the default) runs every task in
        the calling process — no fork, no pickling — and is the
        reference every other placement must match; ``N`` forks
        ``min(N, shards) - 1`` lanes per ``map`` beside the calling
        process (``N > 1`` raises :class:`ConfigurationError` where
        ``fork`` does not exist).
    seed:
        Root of the per-task substream derivation.  Task *i* of the
        executor's lifetime receives
        ``DeterministicRng(seed).substream(i)``'s seed (only passed to
        task functions that declare a ``task_seed`` keyword).  The
        counter advances for cache-hit tasks too, so a warm cache
        never shifts later tasks' seeds.
    cache:
        ``None``, a directory path, or a :class:`ResultCache`.  Only
        ``map`` calls that pass ``kind`` participate in caching.
    max_attempts:
        Attempts per shard, the first included (``1`` = no retries):
        a task that raised, or a forked lane that died under it, is
        charged one and the shard is run again.
    """

    def __init__(
        self,
        jobs: int = 1,
        seed: int = 0,
        cache: Optional[Any] = None,
        max_attempts: int = 2,
    ) -> None:
        if jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        if jobs > 1 and "fork" not in multiprocessing.get_all_start_methods():
            raise ConfigurationError(
                f"jobs={jobs} forks its lanes, and this platform has "
                f"no fork start method; use jobs=1"
            )
        if max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {max_attempts}"
            )
        self.jobs = jobs
        self.max_attempts = max_attempts
        self._seed_root = DeterministicRng(seed)
        self._tasks_submitted = 0
        if isinstance(cache, str):
            cache = ResultCache(cache)
        self.cache: Optional[ResultCache] = cache
        self.tasks_run = 0
        self.tasks_cached = 0
        self.retries = 0
        # Serialized per-task registry documents, absorbed from task
        # results in submission order — see merged_registry().
        self._shard_registries: List[Dict[str, Any]] = []

    # -- shard transitions -------------------------------------------------

    def _observe(self, kind: Optional[str], event: str, pending: _Pending,
                 **info: Any) -> None:
        """Count a :class:`ShardLoop` transition, whichever lane ran it:
        one ``tasks_run`` per resolved shard and one ``retries`` per
        charged attempt that will be retried.

        A resolved shard is cached at once (when ``kind`` and a cache
        are set), so a sweep that dies part-way (a terminal failure, a
        crash of the calling process) keeps every shard it finished.
        The cached value keeps its ``obs_registry`` (absorption works
        on a copy), so cache hits replay their shard registries exactly
        like fresh runs.
        """
        if event == "charged":
            if not info["terminal"]:
                self.retries += 1
            return
        self.tasks_run += 1
        if self.cache is not None and kind is not None:
            shard = pending.shard
            self.cache.put(
                shard.digest, cache_key(kind, self._key_doc(shard)),
                info["result"],
            )

    # -- the one entry point ----------------------------------------------

    def map(
        self,
        fn: Callable[..., Any],
        payloads: Sequence[Any],
        kind: Optional[str] = None,
        labels: Optional[Sequence[str]] = None,
    ) -> List[Any]:
        """Apply ``fn`` to every payload; results in submission order.

        ``fn`` must be a function of one payload, optionally accepting
        a ``task_seed`` keyword, returning a picklable result.
        ``kind`` names the task family for the result cache; without
        it (or without a cache) every task runs.  ``labels`` are
        per-task names for failure messages.
        """
        if labels is not None and len(labels) != len(payloads):
            raise ConfigurationError("need one label per payload")
        wants_seed = _wants_task_seed(fn)
        shards: List[_Shard] = []
        for position, payload in enumerate(payloads):
            index = self._tasks_submitted
            self._tasks_submitted += 1
            shards.append(
                _Shard(
                    index=index,
                    payload=payload,
                    label=(labels[position] if labels is not None
                           else f"{kind or getattr(fn, '__name__', 'task')}"
                                f"[{index}]"),
                    task_seed=(self._seed_root.substream(index).seed
                               if wants_seed else None),
                )
            )

        results: Dict[int, Any] = {}
        to_run: List[_Shard] = []
        for shard in shards:
            if self.cache is not None and kind is not None:
                doc = self._key_doc(shard)
                shard.digest = config_digest(kind, doc)
                cached = self.cache.get(shard.digest)
                if cached is not None:
                    results[shard.index] = cached
                    self.tasks_cached += 1
                    continue
            to_run.append(shard)

        if to_run:
            # Lane count is the only thing jobs decides.
            results.update(ShardLoop(
                fn, to_run, min(self.jobs, len(to_run)), self.max_attempts,
                functools.partial(self._observe, kind),
            ).run())
        return [
            self._absorb_registry(results[shard.index]) for shard in shards
        ]

    def _absorb_registry(self, result: Any) -> Any:
        """Strip and collect a task result's ``obs_registry`` document.

        Simulation tasks embed their worker-local registry snapshot
        under this key (:mod:`repro.parallel.tasks`); it is executor
        metadata, not sweep output, so it must not leak into result
        consumers (``tradeoff_sweep`` passes task dicts verbatim into
        the CLI's canonical JSON).  Collection order is submission
        order — shards were just iterated in it — which makes
        :meth:`merged_registry` independent of ``jobs``.
        """
        if isinstance(result, dict) and "obs_registry" in result:
            self._shard_registries.append(result["obs_registry"])
            result = {
                key: value
                for key, value in result.items()
                if key != "obs_registry"
            }
        return result

    def merged_registry(self):
        """One cluster-level registry folded from every shard document.

        Counters and histogram buckets add across shards, gauges take
        the last write in submission order, and the executor's own
        ``parallel.*`` progress gauges ride along — byte-identical
        exposition for every ``jobs`` value (and for warm-cache
        replays, since cached results keep their shard documents).
        """
        from repro.obs.export import merge_serialized

        registry = merge_serialized(self._shard_registries)
        # No worker-count or wall-time families here: the merged
        # registry must render byte-identically for every ``jobs``
        # value, so only jobs-invariant quantities may appear.
        registry.gauge("parallel.tasks_submitted").set(self._tasks_submitted)
        registry.gauge("parallel.tasks_run").set(self.tasks_run)
        registry.gauge("parallel.tasks_cached").set(self.tasks_cached)
        registry.gauge("parallel.retries").set(self.retries)
        registry.gauge("parallel.shards_merged").set(
            len(self._shard_registries)
        )
        return registry

    def _key_doc(self, shard: _Shard) -> Any:
        if shard.task_seed is None:
            return shard.payload
        return {"payload": shard.payload, "task_seed": shard.task_seed}
