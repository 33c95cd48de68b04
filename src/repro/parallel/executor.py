"""Deterministic fan-out of independent simulation points.

:class:`SweepExecutor` runs a list of tasks — module-level functions
applied to picklable payloads — either inline (``jobs=1``) or across
worker processes (``jobs>1``, ``spawn`` start method), and merges the
results **in submission order**.  Combined with the facts that every
task is a pure function of its payload and that per-task RNG
substreams are derived from the submission index alone
(:meth:`~repro.common.rng.DeterministicRng.substream`), the merged
output is bit-identical for every ``jobs`` value: parallelism is an
execution detail, never an observable one.  docs/parallel.md states
the full determinism contract.

Layered on top:

* a content-addressed result cache (:mod:`repro.parallel.cache`) —
  tasks whose input digest already has a stored result are not run at
  all, which turns a repeated sweep into pure file reads;
* worker-failure retry and per-attempt timeouts via
  :class:`repro.resilience.retry.RetryPolicy` — a worker process dying
  (OOM killer, BrokenProcessPool) re-runs only the affected shards;
* per-shard progress events through :mod:`repro.obs` — lifecycle
  events land in the process-global diagnostics ring
  (:mod:`repro.obs.diag`) and, when a tracer is attached, in that
  tracer under :data:`~repro.obs.events.CATEGORY_PARALLEL`.

The ``spawn`` start method is deliberate: it is the only start method
available everywhere, and it guarantees workers build their state from
the pickled payload alone — a forked copy of a warm parent could
smuggle in mutated globals and break the jobs-invariance contract.

Pool reuse and chunking
-----------------------
``spawn`` pays a real price: each worker is a fresh interpreter that
re-imports the simulator stack before it can run its first task.  The
original executor built a brand-new pool per :meth:`SweepExecutor.map`
call and shipped one future per task, so short sweeps spent more time
spawning and pickling than simulating (a 0.75x *slowdown* at
``jobs=4``).  Two fixes, neither observable in the merged output
(``benchmarks/perf``'s ``sweep_fig2`` workload reports what they buy:
``parallel.speedup_j2``, ``pool_spawn_s``, ``cache_replay_s``):

* **a warm persistent pool** — one module-level ``spawn`` pool is kept
  alive across ``map`` calls (rebuilt only when more workers are
  needed or the pool broke), with an ``initializer`` that pre-imports
  the simulator stack so the first real task in each worker does not
  pay the import latency.  Worker reuse is safe for the same reason
  parallelism is: tasks are pure functions of their payloads and may
  not mutate module state they expect to see again.
* **task chunking** — tasks are grouped into contiguous chunks (one
  future per chunk, ``fn`` pickled once per chunk) and key/value pairs
  shared by every payload in a chunk are factored out and shipped
  once, instead of re-serializing the full sweep spec per point.
  Workers rebuild each payload as ``{**shared, **delta}``; dict
  equality is order-insensitive and tasks are functions of payload
  *values*, so results are unchanged.  Cache digests are computed
  parent-side from the original payloads and never see the split.

Failure handling keeps per-task granularity: a chunk worker catches
each task's exception and returns it in-band, so retries and
:class:`~repro.common.errors.WorkerFailureError` still name the exact
shard that failed, and a retry re-runs only that shard.
"""

from __future__ import annotations

import atexit
import concurrent.futures
import inspect
import multiprocessing
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.errors import (
    ConfigurationError,
    ShardTimeoutError,
    WorkerFailureError,
)
from repro.common.rng import DeterministicRng
from repro.obs import diag
from repro.obs.events import CATEGORY_PARALLEL
from repro.obs.tracer import NULL_TRACER
from repro.parallel.cache import ResultCache, cache_key, config_digest
from repro.resilience.retry import DEFAULT_RETRY_POLICY, RetryPolicy, run_attempts

#: Chunks per worker in one ``map`` call.  Two rounds per worker keeps
#: the amortization (``fn`` + the factored-out shared spec pickle once
#: per chunk) while leaving slack for uneven task costs.
_CHUNK_ROUNDS = 2


def _call_task(fn: Callable[..., Any], payload: Any,
               task_seed: Optional[int]) -> Any:
    """Worker-side trampoline (module-level so ``spawn`` can pickle it)."""
    if task_seed is None:
        return fn(payload)
    return fn(payload, task_seed=task_seed)


def _call_task_chunk(
    fn: Callable[..., Any],
    shared: Optional[Dict[str, Any]],
    items: Sequence[Tuple[Any, Optional[int]]],
) -> List[Tuple[bool, Any]]:
    """Run a chunk of tasks in one worker round-trip.

    ``items`` holds ``(delta, task_seed)`` pairs; when ``shared`` is
    not None each payload is rebuilt as ``{**shared, **delta}`` (the
    chunk-common keys were factored out parent-side so they pickle
    once per chunk, not once per task).  Per-task exceptions are
    returned in-band as ``(False, exception)`` so the parent can retry
    and report the exact shard that failed instead of losing the whole
    chunk.
    """
    out: List[Tuple[bool, Any]] = []
    for delta, task_seed in items:
        if shared is None:
            payload = delta
        else:
            payload = dict(shared)
            payload.update(delta)
        try:
            out.append((True, _call_task(fn, payload, task_seed)))
        except BaseException as exc:  # returned, not raised: in-band
            out.append((False, exc))
    return out


def _split_common(
    payloads: Sequence[Any],
) -> Tuple[Optional[Dict[str, Any]], List[Any]]:
    """Factor the key/value pairs shared by every payload in a chunk.

    Returns ``(shared, deltas)`` where each original payload equals
    ``{**shared, **delta}``.  Only dict payloads participate; the
    identical-type guard keeps ``1``/``True``-style coercions from
    swapping a value's type during reconstruction.
    """
    if len(payloads) < 2 or not all(isinstance(p, dict) for p in payloads):
        return None, list(payloads)
    first = payloads[0]
    shared = {
        key: value
        for key, value in first.items()
        if all(
            key in p and type(p[key]) is type(value) and p[key] == value
            for p in payloads[1:]
        )
    }
    if not shared:
        return None, list(payloads)
    deltas = [
        {k: v for k, v in p.items() if k not in shared} for p in payloads
    ]
    return shared, deltas


def _warm_worker() -> None:  # pragma: no cover - runs in spawned workers
    """Pool initializer: pre-import the simulator stack.

    A ``spawn`` worker starts as a bare interpreter; importing the
    analysis/simulation modules here means the first real task pays
    only simulation time, not import time.  Best-effort: if it fails
    here, unpickling the first task function imports the same modules
    (``repro.parallel.tasks`` imports them at module level) and the
    real error surfaces there, attributed to a shard.
    """
    try:
        import repro.analysis.experiments  # noqa: F401
        import repro.sim.system  # noqa: F401
    # An exception escaping a pool initializer breaks the entire pool
    # (every future fails), while a missed pre-import only costs time:
    # swallowing anything here is strictly safer than surfacing it.
    # repro-lint: disable-next-line=RL006
    except Exception:
        pass


# The warm pool is deliberately module-global mutable state: the whole
# point is reuse across SweepExecutor instances.  It never influences
# results (workers are stateless between pure tasks), only latency.
_POOL: Optional[concurrent.futures.ProcessPoolExecutor] = None
_POOL_WORKERS = 0


def _warm_pool(workers: int) -> concurrent.futures.ProcessPoolExecutor:
    """The shared spawn pool, rebuilt only when too small or broken."""
    global _POOL, _POOL_WORKERS
    pool = _POOL
    if (
        pool is not None
        and not getattr(pool, "_broken", False)
        and _POOL_WORKERS >= workers
    ):
        return pool
    if pool is not None:
        pool.shutdown(wait=False)
    pool = concurrent.futures.ProcessPoolExecutor(
        max_workers=workers,
        mp_context=multiprocessing.get_context("spawn"),
        initializer=_warm_worker,
    )
    _POOL = pool
    _POOL_WORKERS = workers
    return pool


def _discard_pool() -> None:
    """Drop the warm pool (after breakage, or at interpreter exit)."""
    global _POOL, _POOL_WORKERS
    if _POOL is not None:
        _POOL.shutdown(wait=False)
    _POOL = None
    _POOL_WORKERS = 0


def _terminate_pool() -> None:
    """Drop the warm pool *and* kill its worker processes.

    ``shutdown(wait=False)`` alone leaves a wedged worker running its
    stuck task forever; after a shard timeout the only way to reclaim
    the CPU is to terminate the processes outright.  Queued futures on
    the old pool fail with ``BrokenProcessPool`` and retry on a fresh
    pool — pure tasks make that safe.
    """
    pool = _POOL
    processes = list(getattr(pool, "_processes", {}).values()) if pool else []
    _discard_pool()
    for process in processes:
        try:
            process.terminate()
        except (OSError, ValueError, AttributeError):
            pass  # already exited / never fully started


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
    cached: bool = False


class SweepExecutor:
    """Order-preserving, cache-aware parallel map over sweep points.

    Parameters
    ----------
    jobs:
        Worker processes.  ``1`` (the default) runs every task inline
        in the calling process — no pool, no pickling round-trip —
        and is the reference ordering the parallel path must match.
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
    retry:
        :class:`RetryPolicy` for worker attempts (default: 2 attempts,
        no timeout).
    tracer:
        Optional :class:`~repro.obs.tracer.EventTracer`; lifecycle
        events are always mirrored into :mod:`repro.obs.diag`.
    dispatch:
        Optional :class:`~repro.parallel.dispatch.DispatchCoordinator`.
        When set, shards that miss the cache run on remote worker
        hosts instead of the local pool; if every host is lost the
        coordinator drains the remainder back through this executor's
        local paths (degraded mode).  Placement never affects results
        — see docs/dispatch.md.
    """

    def __init__(
        self,
        jobs: int = 1,
        seed: int = 0,
        cache: Optional[Any] = None,
        retry: RetryPolicy = DEFAULT_RETRY_POLICY,
        tracer: Any = NULL_TRACER,
        dispatch: Optional[Any] = None,
    ) -> None:
        if jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.retry = retry
        self.tracer = tracer
        self.dispatch = dispatch
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

    # -- events ------------------------------------------------------------

    def _emit(self, name: str, index: int, **args: Any) -> None:
        diag.emit_diagnostic(
            name, category=CATEGORY_PARALLEL, task=index, **args
        )
        if self.tracer.enabled:
            self.tracer.emit(index, CATEGORY_PARALLEL, name, **args)

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
                    shard.cached = True
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
            if self.dispatch is not None:
                cached_shards = [s for s in shards if s.cached]
                self._run_dispatched(
                    fn, to_run, cached_shards, kind, results
                )
            elif self.jobs == 1 or len(to_run) == 1:
                self._run_inline(fn, to_run, results)
            else:
                self._run_pooled(fn, to_run, results)

        for shard in to_run:
            if self.cache is not None and shard.digest is not None:
                # The cached value keeps its obs_registry (absorption
                # below works on a copy), so cache hits replay their
                # shard registries exactly like fresh runs.
                self.cache.put(
                    shard.digest,
                    cache_key(kind, self._key_doc(shard)),
                    results[shard.index],
                )
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

    # -- execution strategies ---------------------------------------------

    def _run_dispatched(
        self,
        fn: Callable[..., Any],
        to_run: List[_Shard],
        cached_shards: List[_Shard],
        kind: Optional[str],
        results: Dict[int, Any],
    ) -> None:
        """Fan shards out through the dispatch coordinator.

        The coordinator owns placement and recovery; this method owns
        the executor-side accounting that keeps the ``parallel.*``
        gauges jobs- *and* placement-invariant: exactly one
        ``task_done`` per shard, whether the shard ran on a remote
        host or drained through the local paths in degraded mode (the
        local paths emit their own events, so remote completions are
        emitted here and drained shards are not double-counted).
        """
        drained: set = set()

        def local_runner(shard_list: List[_Shard]) -> Dict[int, Any]:
            local_results: Dict[int, Any] = {}
            drained.update(s.index for s in shard_list)
            if self.jobs == 1 or len(shard_list) == 1:
                self._run_inline(fn, shard_list, local_results)
            else:
                self._run_pooled(fn, shard_list, local_results)
            return local_results

        dispatched = self.dispatch.run(
            fn,
            to_run,
            kind=kind or "",
            cached_shards=cached_shards,
            local_runner=local_runner,
        )
        for shard in to_run:
            results[shard.index] = dispatched[shard.index]
            if shard.index not in drained:
                self.tasks_run += 1
                self._emit(
                    "parallel.task_done", shard.index, label=shard.label
                )

    def _shard_timeout(
        self, shard: _Shard, attempt: int, chunk_size: int
    ) -> ShardTimeoutError:
        """Build the typed timeout error for a wedged shard.

        Watchdog discipline (docs/resilience.md): the failure carries
        a structured dump of what was stuck, the event ring gets a
        mirror of it, and the wedged pool is terminated so the stuck
        worker cannot keep burning a core behind the sweep's back.
        """
        dump = {
            "shard": shard.index,
            "label": shard.label,
            "attempt": attempt,
            "timeout_seconds": self.retry.timeout_seconds,
            "chunk_size": chunk_size,
            "jobs": self.jobs,
            "pool_terminated": True,
        }
        self._emit(
            "parallel.shard_timeout", shard.index, label=shard.label,
            attempt=attempt, timeout_seconds=self.retry.timeout_seconds,
        )
        _terminate_pool()
        return ShardTimeoutError(
            f"shard {shard.label} exceeded its "
            f"{self.retry.timeout_seconds}s attempt budget "
            f"(attempt {attempt}, chunk of {chunk_size})",
            task_index=shard.index,
            label=shard.label,
            timeout_seconds=self.retry.timeout_seconds or 0.0,
            dump=dump,
        )

    def _run_inline(
        self, fn: Callable[..., Any], to_run: List[_Shard],
        results: Dict[int, Any],
    ) -> None:
        for shard in to_run:
            def attempt(_number: int, shard: _Shard = shard) -> Any:
                return _call_task(fn, shard.payload, shard.task_seed)

            results[shard.index] = run_attempts(
                attempt, self.retry,
                task_index=shard.index, label=shard.label,
                on_retry=lambda n, e, s=shard: self._on_retry(s, n, e),
            )
            self.tasks_run += 1
            self._emit("parallel.task_done", shard.index, label=shard.label)

    def _run_pooled(
        self, fn: Callable[..., Any], to_run: List[_Shard],
        results: Dict[int, Any],
    ) -> None:
        """Chunked execution on the warm persistent pool.

        Tasks are split into contiguous chunks — :data:`_CHUNK_ROUNDS`
        per worker, so each worker sees a couple of large futures
        instead of one tiny future per task — and every chunk's
        payloads have their common keys factored out parent-side
        (:func:`_split_common`).  Chunks are collected in submission
        order; within a chunk, per-task outcomes come back in-band, so
        a failure retries only its own shard (resubmitted singly, into
        a rebuilt pool if the old one broke).  The per-attempt timeout
        applies to the single-shard retries; the first attempt's chunk
        future gets it scaled by the chunk length.
        """
        workers = min(self.jobs, len(to_run))
        n_chunks = min(len(to_run), workers * _CHUNK_ROUNDS)
        base, extra = divmod(len(to_run), n_chunks)
        chunks: List[List[_Shard]] = []
        start = 0
        for i in range(n_chunks):
            size = base + (1 if i < extra else 0)
            chunks.append(to_run[start:start + size])
            start += size

        pool = _warm_pool(workers)
        # A chunk slot holds either a Future or the exception submit
        # itself raised: a worker dying while later chunks are still
        # being submitted breaks the pool mid-loop, and that must cost
        # the affected shards one attempt, not the whole sweep.
        pending: List[Tuple[List[_Shard], Any]] = []
        for chunk in chunks:
            shared, deltas = _split_common([s.payload for s in chunk])
            items = [
                (delta, shard.task_seed)
                for delta, shard in zip(deltas, chunk)
            ]
            try:
                slot: Any = pool.submit(_call_task_chunk, fn, shared, items)
            except Exception as exc:  # BrokenProcessPool and kin
                slot = exc
            pending.append((chunk, slot))

        # First-attempt outcomes, (ok, value-or-exception) per shard.
        # A chunk-level failure (timeout, dead pool) charges every
        # shard in the chunk one attempt, matching the old per-future
        # accounting.
        outcomes: Dict[int, Tuple[bool, Any]] = {}
        for chunk, future in pending:
            if isinstance(future, BaseException):
                for shard in chunk:
                    outcomes[shard.index] = (False, future)
            else:
                timeout = self.retry.timeout_seconds
                if timeout is not None:
                    timeout *= len(chunk)
                try:
                    for shard, outcome in zip(
                        chunk, future.result(timeout)
                    ):
                        outcomes[shard.index] = outcome
                except concurrent.futures.TimeoutError as exc:
                    future.cancel()
                    for shard in chunk:
                        outcomes[shard.index] = (False, exc)
                except Exception as exc:  # BrokenProcessPool and kin
                    for shard in chunk:
                        outcomes[shard.index] = (False, exc)

            for shard in chunk:
                def attempt(number: int, shard: _Shard = shard,
                            chunk: List[_Shard] = chunk) -> Any:
                    nonlocal pool
                    if number == 1:
                        ok, value = outcomes[shard.index]
                        if ok:
                            return value
                        if isinstance(
                            value, concurrent.futures.TimeoutError
                        ):
                            raise self._shard_timeout(
                                shard, number, len(chunk)
                            ) from value
                        raise value
                    if pool is not _POOL or getattr(pool, "_broken", False):
                        # The warm pool broke or was terminated after
                        # a shard timeout: rebuild before retrying.
                        _discard_pool()
                        pool = _warm_pool(workers)
                    retry_future = pool.submit(
                        _call_task, fn, shard.payload, shard.task_seed
                    )
                    try:
                        return retry_future.result(
                            timeout=self.retry.timeout_seconds
                        )
                    except concurrent.futures.TimeoutError as exc:
                        retry_future.cancel()
                        raise self._shard_timeout(shard, number, 1) from exc

                try:
                    results[shard.index] = run_attempts(
                        attempt, self.retry,
                        task_index=shard.index, label=shard.label,
                        on_retry=lambda n, e, s=shard: self._on_retry(s, n, e),
                    )
                except WorkerFailureError as failure:
                    cause = failure.__cause__
                    if isinstance(cause, ShardTimeoutError):
                        # Every attempt hit the budget: surface the
                        # typed timeout (with its structured dump)
                        # rather than the generic retry wrapper.
                        cause.dump["attempts"] = failure.attempts
                        raise cause from failure
                    raise
                self.tasks_run += 1
                self._emit("parallel.task_done", shard.index,
                           label=shard.label)

    def _on_retry(self, shard: _Shard, number: int,
                  error: BaseException) -> None:
        self.retries += 1
        self._emit(
            "parallel.task_retry", shard.index, label=shard.label,
            attempt=number, error=f"{type(error).__name__}: {error}",
        )
