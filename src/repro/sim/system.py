"""System builder and the wired :class:`System` state.

A :class:`System` is the paper's Figure 5 made executable.  Use
:class:`SystemBuilder` to assemble one:

>>> from repro.sim import SystemBuilder
>>> from repro.workloads import make_trace
>>> builder = SystemBuilder(seed=7)
>>> _ = builder.add_core(make_trace("astar", 500))
>>> _ = builder.add_core(make_trace("mcf", 500))
>>> system = builder.build()
>>> report = system.run(20000)
>>> report.num_cores
2

Shaping is attached per core: ``request_shaping=`` for ReqC (or an
:class:`EpochShapingPlan` for Fletcher'14), ``response_shaping=`` for
RespC, both for BDC.  Each plan builds its station's release policy.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Union

from repro.cache.hierarchy import CacheHierarchy
from repro.common.errors import ConfigurationError
from repro.common.rng import DeterministicRng
from repro.core.epoch_shaper import EpochShapingPlan
from repro.core.request_shaper import RequestCamouflage
from repro.core.response_shaper import ResponseCamouflage
from repro.core.shaper import (
    Passthrough,
    RequestShapingPlan,
    ResponseShapingPlan,
)
from repro.cpu.core import Core
from repro.cpu.trace import MemoryTrace
from repro.dram.address import AddressMapping
from repro.dram.organization import DramOrganization
from repro.dram.system import DramSystem
from repro.memctrl.controller import MemoryController
from repro.memctrl.schedulers import (
    FixedServiceScheduler,
    FrFcfsScheduler,
    PriorityFrFcfsScheduler,
    Scheduler,
    TemporalPartitioningScheduler,
)
from repro.memctrl.transaction import MemoryTransaction, TransactionType
from repro.noc.link import SharedLink
from repro.obs.hub import Observability, ObservabilityConfig
from repro.resilience.runtime import ResilienceConfig, ResilienceRuntime
from repro.sim import columnar
from repro.sim.stats import CoreStats, SystemReport


@dataclass
class _CorePlan:
    trace: MemoryTrace
    request_shaping: Optional[Union[RequestShapingPlan, EpochShapingPlan]]
    response_shaping: Optional[ResponseShapingPlan]


# Sampler probes and wiring callables, as module-level classes rather
# than builder closures: the wired system must pickle for
# checkpoint/restore (repro.resilience.snapshot), and locally defined
# lambdas cannot.  Every probe reads only span-constant state — the
# interval sampler's closed-form-fill contract (repro.obs.metrics).


class _OutstandingGapProbe:
    """RespC's acceleration signal: this core's misses still inside
    the memory system (outstanding minus already buffered responses)."""

    __slots__ = ("_core", "_path")

    def __init__(self, core, path) -> None:
        self._core = core
        self._path = path

    def __call__(self) -> int:
        return max(0, self._core.outstanding_misses - self._path.occupancy)


class _AttrProbe:
    """Reads one cumulative-counter attribute of one component."""

    __slots__ = ("_obj", "_attr")

    def __init__(self, obj, attr: str) -> None:
        self._obj = obj
        self._attr = attr

    def __call__(self):
        return getattr(self._obj, self._attr)


class _QueueDepthProbe:
    __slots__ = ("_controller",)

    def __init__(self, controller) -> None:
        self._controller = controller

    def __call__(self) -> int:
        return len(self._controller.queue)


class _RowHitRateProbe:
    __slots__ = ("_controller",)

    def __init__(self, controller) -> None:
        self._controller = controller

    def __call__(self) -> float:
        hits = self._controller.row_hits
        total = hits + self._controller.row_misses
        return hits / total if total else 0.0


class _CreditSumProbe:
    __slots__ = ("_path",)

    def __init__(self, path) -> None:
        self._path = path

    def __call__(self) -> int:
        return sum(self._path.shaper.credits_remaining())


class _FakeFractionProbe:
    __slots__ = ("_path",)

    def __init__(self, path) -> None:
        self._path = path

    def __call__(self) -> float:
        fake = self._path.fake_sent
        total = self._path.real_sent + fake
        return fake / total if total else 0.0


class SystemBuilder:
    """Fluent assembly of a full system."""

    def __init__(self, seed: int = 12345) -> None:
        self._seed = seed
        self._core_plans: List[_CorePlan] = []
        self._scheduler_kind = "frfcfs"
        self._scheduler_kwargs: Dict = {}
        self._organization = DramOrganization()
        self._enable_refresh = True
        self._noc_latency = 4
        self._obs_config: Optional[ObservabilityConfig] = None
        self._resilience_config: Optional[ResilienceConfig] = None
        self._bank_partitioning = False

    # -- configuration -----------------------------------------------------

    def add_core(
        self,
        trace: MemoryTrace,
        request_shaping: Optional[
            Union[RequestShapingPlan, EpochShapingPlan]
        ] = None,
        response_shaping: Optional[ResponseShapingPlan] = None,
    ) -> int:
        """Register a core; returns its id (assignment order)."""
        self._core_plans.append(
            _CorePlan(trace, request_shaping, response_shaping)
        )
        return len(self._core_plans) - 1

    def with_scheduler(self, kind: str, **kwargs) -> "SystemBuilder":
        """Select the memory scheduling policy.

        ``kind`` ∈ {"frfcfs", "priority", "tp", "fs"}; kwargs are
        forwarded to the scheduler constructor (e.g. ``turn_length``
        for TP, ``interval`` for FS).
        """
        if kind not in ("frfcfs", "priority", "tp", "fs"):
            raise ConfigurationError(f"unknown scheduler kind {kind!r}")
        self._scheduler_kind = kind
        self._scheduler_kwargs = dict(kwargs)
        return self

    def with_dram(
        self,
        organization: Optional[DramOrganization] = None,
        enable_refresh: Optional[bool] = None,
    ) -> "SystemBuilder":
        """DRAM geometry and refresh; the timing is always DDR3-1333."""
        if organization is not None:
            self._organization = organization
        if enable_refresh is not None:
            self._enable_refresh = enable_refresh
        return self

    def with_noc(self, latency: int = 4) -> "SystemBuilder":
        """Configure the on-chip channels: one shared request link and
        one shared response link, each ``latency`` cycles long.

        The adversary-visible ``grant_trace`` of each channel is
        bounded through ``with_observability(noc_grant_trace_limit=N)``.
        """
        self._noc_latency = latency
        return self

    def with_observability(
        self,
        config: Optional[ObservabilityConfig] = None,
        **kwargs,
    ) -> "SystemBuilder":
        """Attach the :mod:`repro.obs` stack to the built system.

        Pass a ready :class:`~repro.obs.hub.ObservabilityConfig`, or
        its fields as keyword arguments (``trace=True``,
        ``sample_interval=1024``, ``monitor=True``, ...).  Without this
        call the system carries no observability state at all; with it,
        only the enabled facilities cost anything.
        """
        if config is not None and kwargs:
            raise ConfigurationError(
                "pass either an ObservabilityConfig or keyword fields, "
                "not both"
            )
        self._obs_config = (
            config if config is not None else ObservabilityConfig(**kwargs)
        )
        return self

    def with_resilience(
        self,
        config: Optional[ResilienceConfig] = None,
        **kwargs,
    ) -> "SystemBuilder":
        """Attach the :mod:`repro.resilience` layer to the built system.

        Pass a ready :class:`~repro.resilience.runtime.ResilienceConfig`
        or its fields as keyword arguments (``checkpoint_every=50_000``,
        ``watchdog_cycles=10_000``, ``faults=(...)``, ...).  Enables
        periodic whole-system checkpoints, the diagnostic-dumping
        watchdog and the fault-injection harness — see
        docs/resilience.md.
        """
        if config is not None and kwargs:
            raise ConfigurationError(
                "pass either a ResilienceConfig or keyword fields, not both"
            )
        self._resilience_config = (
            config if config is not None else ResilienceConfig(**kwargs)
        )
        return self

    def with_bank_partitioning(self) -> "SystemBuilder":
        """Give each core a private subset of banks (FS pairing)."""
        self._bank_partitioning = True
        return self

    # -- assembly ---------------------------------------------------------------

    def _make_scheduler(self, num_cores: int) -> Scheduler:
        kind = self._scheduler_kind
        kwargs = dict(self._scheduler_kwargs)
        needs_priority = any(
            p.response_shaping is not None and p.response_shaping.enable_warning
            for p in self._core_plans
        )
        if kind == "frfcfs" and needs_priority:
            # RespC's acceleration warning needs a priority-capable
            # scheduler; upgrade transparently.
            kind = "priority"
        if kind == "frfcfs":
            return FrFcfsScheduler()
        if kind == "priority":
            return PriorityFrFcfsScheduler(num_cores)
        if kind == "tp":
            domain_of_core = kwargs.pop(
                "domain_of_core", list(range(num_cores))
            )
            return TemporalPartitioningScheduler(domain_of_core, **kwargs)
        if kind == "fs":
            return FixedServiceScheduler(num_cores, **kwargs)
        raise ConfigurationError(f"unknown scheduler kind {kind!r}")

    def _make_mappings(self, num_cores: int):
        default = AddressMapping(self._organization)
        if not self._bank_partitioning:
            return default, None
        banks = self._organization.banks_per_rank
        if num_cores > banks:
            raise ConfigurationError(
                f"bank partitioning needs >= one bank per core "
                f"({num_cores} cores, {banks} banks) — the scalability "
                "limit of FS the paper points out"
            )
        share = banks // num_cores
        per_core = {
            c: AddressMapping.partitioned(
                self._organization,
                list(range(c * share, (c + 1) * share)),
            )
            for c in range(num_cores)
        }
        return default, per_core

    def build(self) -> "System":
        if not self._core_plans:
            raise ConfigurationError("a system needs at least one core")
        num_cores = len(self._core_plans)
        rng = DeterministicRng(self._seed)

        dram = DramSystem(
            organization=self._organization,
            enable_refresh=self._enable_refresh,
        )
        scheduler = self._make_scheduler(num_cores)
        default_mapping, per_core_mapping = self._make_mappings(num_cores)
        controller = MemoryController(
            dram,
            scheduler=scheduler,
            mapping=default_mapping,
            per_core_mapping=per_core_mapping,
        )
        noc_trace_limit = (
            self._obs_config.noc_grant_trace_limit
            if self._obs_config is not None
            else None
        )
        request_link = SharedLink(
            num_cores, latency=self._noc_latency, trace_limit=noc_trace_limit,
        )
        response_link = SharedLink(
            num_cores, latency=self._noc_latency, trace_limit=noc_trace_limit,
        )

        request_paths = []
        for core_id, plan in enumerate(self._core_plans):
            shaping = plan.request_shaping
            if shaping is None:
                # a policy that never fakes never draws
                path = RequestCamouflage(
                    core_id, Passthrough(), request_link, core_id
                )
            else:
                path = RequestCamouflage(
                    core_id=core_id,
                    shaper=shaping.policy(rng, core_id),
                    link=request_link,
                    port=core_id,
                    rng=shaping.fake_rng(rng, core_id),
                    generate_fake=shaping.generate_fake,
                )
            request_paths.append(path)

        cores = [
            Core(
                core_id=core_id,
                trace=plan.trace,
                hierarchy=CacheHierarchy(),
                request_sink=request_paths[core_id],
            )
            for core_id, plan in enumerate(self._core_plans)
        ]

        response_paths = []
        for core_id, plan in enumerate(self._core_plans):
            if plan.response_shaping is None:
                response_paths.append(
                    ResponseCamouflage(
                        core_id, Passthrough(), response_link, core_id
                    )
                )
            else:
                shaping = plan.response_shaping
                warn_target = (
                    scheduler
                    if shaping.enable_warning
                    and isinstance(scheduler, PriorityFrFcfsScheduler)
                    else None
                )
                path = ResponseCamouflage(
                    core_id=core_id,
                    shaper=shaping.policy(rng, core_id),
                    link=response_link,
                    port=core_id,
                    scheduler=warn_target,
                    generate_fake=shaping.generate_fake,
                )
                path.set_outstanding_fn(
                    _OutstandingGapProbe(cores[core_id], path)
                )
                response_paths.append(path)

        observability: Optional[Observability] = None
        if self._obs_config is not None:
            observability = Observability(self._obs_config)
            self._wire_observability(
                observability, cores, request_paths, response_paths,
                request_link, response_link, controller, dram,
            )

        resilience: Optional[ResilienceRuntime] = None
        if self._resilience_config is not None:
            resilience = ResilienceRuntime(self._resilience_config, rng)
            if observability is not None:
                resilience.attach_tracer(observability.tracer)

        return System(
            cores=cores,
            request_paths=request_paths,
            response_paths=response_paths,
            request_link=request_link,
            response_link=response_link,
            controller=controller,
            observability=observability,
            resilience=resilience,
        )

    def _wire_observability(
        self,
        obs: Observability,
        cores,
        request_paths,
        response_paths,
        request_link,
        response_link,
        controller,
        dram,
    ) -> None:
        """Hand the tracer to every component; register probes/watches.

        Every probe reads span-constant state (queue depths, credit
        registers, cumulative counters), so the interval sampler's
        closed-form fill across next-event skips is exact — see
        ``repro.obs.metrics`` for the contract.
        """
        tracer = obs.tracer
        request_link.attach_tracer(tracer, "request")
        response_link.attach_tracer(tracer, "response")
        controller.tracer = tracer
        dram.tracer = tracer
        for direction, paths in (
            ("request", request_paths), ("response", response_paths)
        ):
            for core_id, path in enumerate(paths):
                # An unshaped direction stays silent, as if not there.
                if path.shaper.shapes:
                    path.shaper.attach_tracer(tracer, core_id, direction)

        if obs.sampler is not None:
            sampler = obs.sampler
            sampler.add_probe(
                "memctrl.queue_depth", _QueueDepthProbe(controller)
            )
            sampler.add_probe(
                "memctrl.row_hits", _AttrProbe(controller, "row_hits")
            )
            sampler.add_probe(
                "memctrl.row_misses", _AttrProbe(controller, "row_misses")
            )
            sampler.add_probe(
                "memctrl.row_hit_rate", _RowHitRateProbe(controller)
            )
            sampler.add_probe(
                "noc.request_grants", _AttrProbe(request_link, "total_grants")
            )
            sampler.add_probe(
                "noc.response_grants",
                _AttrProbe(response_link, "total_grants"),
            )
            for core_id, req_path in enumerate(request_paths):
                shaping = self._core_plans[core_id].request_shaping
                if shaping is not None and shaping.distribution is not None:
                    sampler.add_probe(
                        f"core{core_id}.request_credits",
                        _CreditSumProbe(req_path),
                    )
                sampler.add_probe(
                    f"core{core_id}.real_sent",
                    _AttrProbe(req_path, "real_sent"),
                )
                sampler.add_probe(
                    f"core{core_id}.fake_sent",
                    _AttrProbe(req_path, "fake_sent"),
                )
                sampler.add_probe(
                    f"core{core_id}.fake_fraction",
                    _FakeFractionProbe(req_path),
                )

        if obs.monitor is not None:
            for core_id, plan in enumerate(self._core_plans):
                for direction, shaping, path in (
                    ("request", plan.request_shaping, request_paths[core_id]),
                    ("response", plan.response_shaping,
                     response_paths[core_id]),
                ):
                    if shaping is not None:
                        obs.monitor.watch(
                            core_id, direction,
                            path.intrinsic_histogram,
                            path.shaped_histogram,
                            shaping.distribution,
                        )


class System:
    """A fully wired system, ready to run."""

    def __init__(
        self,
        cores: Sequence[Core],
        request_paths: Sequence,
        response_paths: Sequence,
        request_link: SharedLink,
        response_link: SharedLink,
        controller: MemoryController,
        observability: Optional[Observability] = None,
        resilience: Optional[ResilienceRuntime] = None,
    ) -> None:
        self.cores = list(cores)
        self.request_paths = list(request_paths)
        self.response_paths = list(response_paths)
        self.request_link = request_link
        self.response_link = response_link
        self.controller = controller
        self.observability = observability
        self.resilience = resilience
        # Cached so the per-tick guard is one boolean test, not an
        # attribute chain (near-zero overhead when disabled).
        self._obs_cycle_hooks = (
            observability is not None and observability.has_cycle_hooks
        )
        self._fault_hooks = (
            resilience is not None and resilience.injector is not None
        )
        self.current_cycle = 0
        self._mc_staging: Deque[MemoryTransaction] = deque()
        # Per-core delivery records: latencies of real demand fills.
        self._latencies: List[List[int]] = [[] for _ in cores]
        self._response_times: List[List] = [[] for _ in cores]

    @property
    def num_cores(self) -> int:
        return len(self.cores)

    @property
    def scheduler(self) -> Scheduler:
        return self.controller.scheduler

    def all_cores_done(self) -> bool:
        return all(core.done for core in self.cores)

    def settle(self) -> None:
        """Bring lazily accounted state up to :attr:`current_cycle`.

        The skipping engine leaves out ticks that only move a
        station's own counters: a core's private ticks
        (:meth:`repro.cpu.core.Core.settle`) and a request shaper's
        stall count.  Whatever reads those counters from outside —
        :meth:`report`, a snapshot, the watchdog, the sampling hooks —
        calls this first.  A no-op under ``engine="cycle"``, which
        runs every tick.
        """
        cycle = self.current_cycle
        for core in self.cores:
            core.settle(cycle)
        for path in self.request_paths:
            path.settle(cycle)

    def __getstate__(self):
        # Snapshots pickle the whole graph: make it a settled one, so
        # the bytes do not depend on which engine ran.
        self.settle()
        return self.__dict__

    def delivered_count(self, core_id: int) -> int:
        """Real demand fills delivered to ``core_id`` so far."""
        return len(self._latencies[core_id])

    def _deliver(self, txn: MemoryTransaction, cycle: int) -> None:
        txn.delivered_cycle = cycle
        core = self.cores[txn.core_id]
        if txn.kind is TransactionType.READ:
            latency = cycle - txn.created_cycle
            self._latencies[txn.core_id].append(latency)
            self._response_times[txn.core_id].append((cycle, latency))
            core.receive_fill(txn, cycle)
        # Fake reads and write-back acks carry no architectural state.

    def run(
        self,
        max_cycles: int,
        stop_when_done: bool = True,
        watchdog_cycles: int = 200_000,
        engine: str = columnar.DEFAULT_ENGINE,
    ) -> SystemReport:
        """Run for up to ``max_cycles`` more cycles; returns a report.

        Can be called repeatedly — the clock continues from where the
        previous call stopped (used by the GA's generation windows).

        ``watchdog_cycles`` guards against configuration deadlocks
        (e.g. a shaper whose credits can never release against a
        stalled core): if no core retires an instruction and no
        response is delivered for that many consecutive cycles while
        work is still pending, the run aborts with a
        :class:`~repro.common.errors.WatchdogError` (a
        :class:`~repro.common.errors.SimulationError` subclass)
        carrying a structured diagnostic dump instead of spinning
        forever.  Set to 0 to disable.  A
        :meth:`SystemBuilder.with_resilience` ``watchdog_cycles``
        setting overrides this argument, and ``checkpoint_every``
        makes the loop snapshot the whole system at every multiple of
        N cycles (see docs/resilience.md).

        ``engine`` selects how a cycle is stepped.  ``"columnar"``
        (the default, :data:`repro.sim.columnar.DEFAULT_ENGINE`) ticks
        only the stations that can act and jumps the clock over spans
        where no station can do anything another could see (cores
        awaiting fills or fetching through compute, shapers between
        credits and boundaries, DRAM awaiting a timing expiry);
        ``"cycle"`` is the oracle that ticks every station every
        cycle.  Both produce a bit-identical
        :class:`~repro.sim.stats.SystemReport` — see
        :mod:`repro.sim.columnar`, which owns the run loop.
        """
        return columnar.run(
            self, max_cycles, stop_when_done, watchdog_cycles, engine
        )

    # -- reporting ------------------------------------------------------------------

    def report(self) -> SystemReport:
        self.settle()
        core_stats = []
        for core in self.cores:
            req_path = self.request_paths[core.core_id]
            resp_path = self.response_paths[core.core_id]
            core_stats.append(
                CoreStats(
                    core_id=core.core_id,
                    trace_name=core.trace.name,
                    cycles=core.cycles,
                    retired_instructions=core.retired_instructions,
                    finish_cycle=core.finish_cycle,
                    demand_requests=core.demand_requests,
                    writeback_requests=core.writeback_requests,
                    fake_requests_sent=req_path.fake_sent,
                    fake_responses_sent=resp_path.fake_sent,
                    memory_stall_cycles=core.memory_stall_cycles,
                    llc_misses=core.hierarchy.l2.misses,
                    llc_accesses=core.hierarchy.llc_access_count,
                    request_intrinsic=req_path.intrinsic_histogram,
                    request_shaped=req_path.shaped_histogram,
                    response_intrinsic=resp_path.intrinsic_histogram,
                    response_shaped=resp_path.shaped_histogram,
                    memory_latencies=list(self._latencies[core.core_id]),
                    response_times=list(self._response_times[core.core_id]),
                )
            )
        return SystemReport(
            cycles_run=self.current_cycle,
            cores=core_stats,
            row_hits=self.controller.row_hits,
            row_misses=self.controller.row_misses,
            refreshes=self.controller.refreshes,
            request_link_grants=self.request_link.total_grants,
            response_link_grants=self.response_link.total_grants,
            scheduler_name=self.controller.scheduler.name,
        )
