"""Deterministic fan-out of independent simulation points.

:class:`SweepExecutor` runs a list of tasks — module-level functions
applied to picklable payloads — and merges the results **in submission
order**.  Combined with the facts that every task is a pure function
of its payload and that per-task RNG substreams are derived from the
submission index alone
(:meth:`~repro.common.rng.DeterministicRng.substream`), the merged
output is bit-identical wherever the tasks ran: parallelism and
placement are execution details, never observable ones.
docs/parallel.md states the full determinism contract.

Lanes and the shard loop
------------------------
A *lane* executes one shard at a time: the calling thread, or one slot
of the warm forked pool.  ``jobs=N`` means N simulations in flight:
the calling thread is always the first lane and ``min(N, shards) - 1``
pool lanes run beside it, so ``jobs=1`` (or a single shard) runs on
the calling thread alone.  The calling thread has no crash isolation:
a task that kills its process ends the sweep at any ``jobs``, so each
result is cached as its shard resolves and a rerun on the same cache
runs only what had not finished.  :class:`ShardLoop` is the only way
a shard ever runs on either kind of lane — one queue, one attempt
counter per shard, one place a
:class:`~repro.common.errors.WorkerFailureError` is built — so what a
failed attempt costs does not depend on where the shard happened to
run (the failure matrix is in docs/parallel.md).  ``SweepExecutor.map``
is what surrounds the loop: seeds, the content-addressed result cache
(:mod:`repro.parallel.cache` — a task whose input digest already has a
stored result is not run at all), and the merge of per-shard metrics
registries.  Per-shard lifecycle events land in the process-global
diagnostics ring (:mod:`repro.obs.diag`) under
:data:`~repro.obs.events.CATEGORY_PARALLEL`.

The warm pool
-------------
Pool workers are forked from the calling process, and that is safe
because of what the calling process already is: the inline lane runs
every task inside it, warm imports, memoised traces and all, and that
lane is the reference every ``jobs`` value must match byte for byte.
A worker forked from the same process therefore holds no state a task
could read that the reference lane did not.  One module-level pool of
``jobs - 1`` workers is kept alive across ``map`` calls (rebuilt only
when more workers are needed or the pool broke), and the first ``map``
that finds it cold forks every worker at :func:`_boot_pool`, from the
calling thread, before any lane thread exists: a forked worker needs
no interpreter start and no imports, so it takes its first shard at
once (a ``spawn`` worker, which needed both, ran 1 of the 5 shards
of a cold ``--jobs 2`` Fig 2 ladder; forked ones lift that sweep's
simulated cycles per second by 43 % on a 2-CPU box, docs/parallel.md
"Execution costs").  Where ``fork`` does not exist, ``jobs > 1`` is
refused.  Each pool lane keeps one single-shard future in flight and
takes its next shard from the loop's queue when that one resolves, so
uneven tasks balance themselves.
"""

from __future__ import annotations

import atexit
import concurrent.futures
import functools
import inspect
import multiprocessing
import threading
from collections import deque
from dataclasses import dataclass
from typing import (
    Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple,
)

from repro.common.errors import ConfigurationError, WorkerFailureError
from repro.common.rng import DeterministicRng
from repro.obs import diag
from repro.obs.events import CATEGORY_PARALLEL
from repro.parallel.cache import ResultCache, cache_key, config_digest


def _call_task(fn: Callable[..., Any], payload: Any,
               task_seed: Optional[int]) -> Any:
    """Worker-side trampoline (module-level so the pool can pickle it)."""
    if task_seed is None:
        return fn(payload)
    return fn(payload, task_seed=task_seed)


# The warm pool is deliberately module-global mutable state: the whole
# point is reuse across SweepExecutor instances.  It never influences
# results (workers are stateless between pure tasks), only latency.
# Pool lanes are threads, so every swap of the global holds the lock.
_POOL: Optional[concurrent.futures.ProcessPoolExecutor] = None
_POOL_WORKERS = 0
_POOL_LOCK = threading.Lock()


def _forget_parent_pool() -> None:
    """Pool initializer, in each forked worker: drop the inherited
    copy of the caller's pool, which has no manager thread here and
    whose submit lock the fork itself was holding, and of the pool
    lock, which a lane thread may have held.  A task that maps again
    then builds a pool of its own."""
    global _POOL, _POOL_WORKERS, _POOL_LOCK
    _POOL, _POOL_WORKERS, _POOL_LOCK = None, 0, threading.Lock()


def _warm_pool(
    workers: int,
) -> Tuple[concurrent.futures.ProcessPoolExecutor, bool]:
    """The shared fork pool, rebuilt only when too small or broken;
    ``True`` alongside it when this call built it."""
    global _POOL, _POOL_WORKERS
    with _POOL_LOCK:
        pool = _POOL
        if (
            pool is not None
            and not getattr(pool, "_broken", False)
            and _POOL_WORKERS >= workers
        ):
            return pool, False
        if pool is not None:
            pool.shutdown(wait=False)
        pool = concurrent.futures.ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_forget_parent_pool,
        )
        _POOL = pool
        _POOL_WORKERS = workers
        return pool, True


def _noop() -> None:
    """Boot task: a fork pool forks all its workers at its first submit."""


def _boot_pool(workers: int) -> None:
    """Fork the pool's ``workers`` processes now, from the calling thread.

    A freshly built pool gets one no-op, submitted before the calling
    thread simulates anything or starts a lane thread, so every worker
    is forked before any lane thread exists and is ready for a shard
    by the time a lane submits one.  The no-op's future is dropped: a
    no-op cannot raise, and a pool that breaks while booting is rebuilt
    by the next pool lane that submits to it.
    """
    pool, built = _warm_pool(workers)
    if built:
        pool.submit(_noop)


def _discard_pool() -> None:
    """Drop the warm pool (at interpreter exit)."""
    global _POOL, _POOL_WORKERS
    with _POOL_LOCK:
        pool, _POOL, _POOL_WORKERS = _POOL, None, 0
    if pool is not None:
        pool.shutdown(wait=False)


atexit.register(_discard_pool)


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


# -- the shard loop ---------------------------------------------------


@dataclass
class _Pending:
    """One shard's way through the loop (its submission bookkeeping,
    the :class:`_Shard`, never changes here)."""

    shard: _Shard
    charged: int = 0  # failed attempts counted against max_attempts


class _InlineLane:
    """Runs shards on whichever thread drives the lane."""

    name = "inline"

    def __init__(self, fn: Callable[..., Any]) -> None:
        self.fn = fn

    def execute(self, shard: _Shard) -> Any:
        return _call_task(self.fn, shard.payload, shard.task_seed)


class _PoolLane(_InlineLane):
    """One slot of the warm pool of ``workers`` processes."""

    name = "pool"

    def __init__(self, fn: Callable[..., Any], workers: int) -> None:
        super().__init__(fn)
        self.workers = workers

    def execute(self, shard: _Shard) -> Any:
        """Submit and wait.  The task's own exception, or the
        ``BrokenProcessPool`` of a worker that died under it,
        propagates; the next submit finds the broken pool and
        rebuilds it."""
        pool, _ = _warm_pool(self.workers)
        return pool.submit(
            _call_task, self.fn, shard.payload, shard.task_seed
        ).result()


#: Key of a failure that is the loop's own, not a shard's; sorts first.
_LOOP_FAILURE = -1


class ShardLoop:
    """Queue → lane → result/failure → requeue: how every shard runs.

    One loop is one run: ``run()`` drives each lane (``lanes[0]`` on
    the calling thread, the rest on daemon threads) until every shard
    is resolved.  A lane takes the next queued shard and executes it;
    an attempt that fails — the task raised, or a pool worker died
    under it — is charged against ``max_attempts`` and requeued for
    any lane, and at the budget it becomes a
    :class:`WorkerFailureError`.  With several terminal failures the
    one with the lowest shard index is raised — shards above it are
    abandoned, shards below it still run to their own conclusion.

    ``observers`` are ``observe(event, pending, **info)`` callables
    told of each transition — ``"done"`` (``result``) and
    ``"charged"`` (``error``, ``terminal``) — from the lane's thread;
    they do the ``parallel.*`` bookkeeping and guard their own state.
    """

    def __init__(
        self,
        shards: Sequence[Any],
        lanes: Sequence[Any],
        max_attempts: int,
        observers: Sequence[Callable[..., None]] = (),
    ) -> None:
        self.max_attempts = max_attempts
        self._observers = tuple(observers)
        self._lanes = lanes
        self._cond = threading.Condition()
        self._queue: Deque[_Pending] = deque(_Pending(s) for s in shards)
        # Unresolved shard indices still wanted; empty ends the run.
        self._open = {shard.index for shard in shards}
        self._results: Dict[int, Any] = {}
        self._failures: Dict[int, BaseException] = {}

    def run(self) -> Dict[int, Any]:
        """Drive every lane until no shard is open; index -> result."""
        threads = [
            threading.Thread(
                target=self._drive, args=(lane,),
                name=f"lane-{lane.name}", daemon=True,
            )
            for lane in self._lanes[1:]
        ]
        for thread in threads:
            thread.start()
        self._drive(self._lanes[0])
        for thread in threads:
            thread.join()
        if self._failures:
            raise self._failures[min(self._failures)]
        return self._results

    def _drive(self, lane: Any) -> None:
        try:
            self._serve(lane)
        # Not a shard's failure but the loop's own (an observer's
        # cache write, an interrupt on the calling thread): every lane
        # is stopped and run() re-raises it once they have.
        except BaseException as exc:
            self._abort(exc)

    def _serve(self, lane: Any) -> None:
        while True:
            pending = self._take()
            if pending is None:
                return
            try:
                value = lane.execute(pending.shard)
            except Exception as exc:  # noqa: BLE001 — the boundary this exists for
                self._charge(pending, exc)
                continue
            with self._cond:
                self._results[pending.shard.index] = value
                self._open.discard(pending.shard.index)
                self._cond.notify_all()
            self._notify("done", pending, result=value)

    def _take(self) -> Optional[_Pending]:
        with self._cond:
            while self._open:
                if self._queue:
                    return self._queue.popleft()
                self._cond.wait()
        return None

    def _notify(self, event: str, pending: _Pending, **info: Any) -> None:
        for observe in self._observers:
            observe(event, pending, **info)

    def _abort(self, error: BaseException) -> None:
        with self._cond:
            self._failures.setdefault(_LOOP_FAILURE, error)
            self._open.clear()
            self._queue.clear()
            self._cond.notify_all()

    def _charge(self, pending: _Pending, exc: BaseException) -> None:
        pending.charged += 1
        error = f"{type(exc).__name__}: {exc}"
        terminal = pending.charged >= self.max_attempts
        self._notify("charged", pending, error=error, terminal=terminal)
        shard = pending.shard
        if not terminal:
            with self._cond:
                if shard.index in self._open:
                    self._queue.appendleft(pending)
                self._cond.notify_all()
            return
        failure = WorkerFailureError(
            f"task {shard.label} failed after {pending.charged} "
            f"attempt(s): {error}",
            task_index=shard.index,
            label=shard.label,
            attempts=pending.charged,
            last_error=error,
        )
        failure.__cause__ = exc
        with self._cond:
            self._failures[shard.index] = failure
            self._open = {i for i in self._open if i < shard.index}
            self._queue = deque(
                p for p in self._queue if p.shard.index in self._open
            )
            self._cond.notify_all()


class SweepExecutor:
    """Order-preserving, cache-aware parallel map over sweep points.

    Parameters
    ----------
    jobs:
        Simulations in flight.  ``1`` (the default) runs every task on
        the calling thread — no pool, no pickling round-trip — and is
        the reference every other placement must match; ``N`` adds
        ``min(N, shards) - 1`` slots of a warm pool of ``N - 1``
        forked workers beside the calling thread (``N > 1`` raises
        :class:`ConfigurationError` where ``fork`` does not exist).
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
        a task that raised, or a pool worker that died under it, is
        charged one and the shard requeued.
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
                f"jobs={jobs} forks pool workers, and this platform has "
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
        # Lanes report from their own threads.
        self._lock = threading.Lock()
        # Serialized per-task registry documents, absorbed from task
        # results in submission order — see merged_registry().
        self._shard_registries: List[Dict[str, Any]] = []

    # -- events ------------------------------------------------------------

    def _emit(self, name: str, index: int, **args: Any) -> None:
        diag.emit_diagnostic(
            name, category=CATEGORY_PARALLEL, task=index, **args
        )

    def _observe(self, event: str, pending: _Pending, **info: Any) -> None:
        """The ``parallel.*`` side of a :class:`ShardLoop` transition:
        exactly one ``task_done`` per shard and one ``task_retry`` per
        charged attempt that will be retried, whichever lane ran it."""
        if event == "done":
            with self._lock:
                self.tasks_run += 1
            self._emit("parallel.task_done", pending.shard.index,
                       label=pending.shard.label)
        elif event == "charged" and not info["terminal"]:
            with self._lock:
                self.retries += 1
            self._emit(
                "parallel.task_retry", pending.shard.index,
                label=pending.shard.label, attempt=pending.charged + 1,
                error=info["error"],
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

        ``fn`` must be a module-level (picklable) function of one
        payload, optionally accepting a ``task_seed`` keyword.
        ``kind`` names the task family for the result cache; without
        it (or without a cache) every task runs.  ``labels`` are
        per-task names for events and failure messages.
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
                    self._emit("parallel.cache_hit", shard.index,
                               label=shard.label, digest=shard.digest)
                    continue
                self._emit("parallel.cache_miss", shard.index,
                           label=shard.label, digest=shard.digest)
            to_run.append(shard)
            self._emit("parallel.task_submit", shard.index,
                       label=shard.label)

        if to_run:
            observers: List[Callable[..., None]] = [self._observe]
            if self.cache is not None and kind is not None:
                observers.append(functools.partial(self._store, kind))
            # Lane choice is the only thing jobs decides: the calling
            # thread, then pool slots, jobs simulations in flight.
            workers = self.jobs - 1
            if workers:
                _boot_pool(workers)
            lanes = [_InlineLane(fn)] + [
                _PoolLane(fn, workers)
                for _ in range(min(self.jobs, len(to_run)) - 1)
            ]
            results.update(ShardLoop(
                to_run, lanes, self.max_attempts, observers=observers
            ).run())
        return [
            self._absorb_registry(results[shard.index]) for shard in shards
        ]

    def _store(self, kind: str, event: str, pending: _Pending,
               **info: Any) -> None:
        """Cache each result as its shard resolves, so a sweep that dies
        part-way (a terminal failure, a crash of the calling process)
        keeps every shard it finished.  The cached value keeps its
        ``obs_registry`` (absorption works on a copy), so cache hits
        replay their shard registries exactly like fresh runs."""
        if event != "done":
            return
        shard = pending.shard
        # Lanes are threads, and two shards may share a digest (and so
        # the entry's temp file).
        with self._lock:
            self.cache.put(
                shard.digest, cache_key(kind, self._key_doc(shard)),
                info["result"],
            )

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
