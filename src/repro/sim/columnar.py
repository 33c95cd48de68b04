"""The simulation engines: one run loop, two ways to step a cycle.

:func:`run` is the only run loop — resilience overrides, watchdog,
checkpoint-boundary and watchdog-horizon caps, profiler bracket — and
is parameterised only by how a cycle is stepped:

``engine="columnar"`` (:data:`DEFAULT_ENGINE`)
    The skipper, and what every experiment, sweep point, GA
    evaluation, scenario and CLI verb runs.  :class:`ColumnarEngine`
    caches every station's ``next_event_cycle`` in a dirty-marked
    horizon list, runs only the stations that are due or were fed on
    each stepped cycle, and jumps the clock over spans in which no
    station can do anything another station could see.

``engine="cycle"``
    The oracle.  :func:`tick` runs every station every cycle and the
    clock never jumps.  The equivalence, snapshot and fingerprint
    tests compare the skipper against it, naming it explicitly.

Station model
-------------
Every pipeline stage of :func:`tick` is a *station* with a row in the
horizon list::

    row      station
    -------  -------------------
    0..n-1   cores
    n..2n-1  request paths
    2n       request link
    2n+1     memory controller
    2n+2..   response paths
    3n+2     response link
    3n+3     fault injector      (only when wired)

Each stepped cycle runs a station iff its cached horizon is due
(``horizon <= cycle``) **or** an upstream station fed it this cycle
(a core that ran feeds its request path; any request path feeds the
request link; fresh enqueues feed the controller; egress pops feed a
response path; any response path feeds the response link).  A station
that runs — or receives input — is marked *dirty* and only dirty rows
have ``next_event_cycle`` re-polled after the step; clean horizons
stay cached, so the per-cycle cost is proportional to the number of
stations that actually changed, not the station count.

Bit-identity
------------
``columnar`` is bit-identical to ``cycle`` by construction:

* A clock jump lands on the minimum cached horizon, and only when no
  cross-station coupling has same-cycle work (staged requests the
  controller can take, egress responses a path can buffer).
* Within a stepped cycle, stations run in exactly the :func:`tick`
  order; a station that is left out has its horizon in the future and
  was fed nothing, so its tick would have touched nothing another
  station can see.
* What a left-out tick does to the station's *own* counters is owed,
  not dropped: a core's private ticks (fetching and retiring
  non-memory instructions, counting stalls) and a request shaper's
  stall count are settled lazily — by the station itself the next
  time it runs, is polled or is filled, and by
  :meth:`~repro.sim.system.System.settle` before anything outside
  reads them (``report()``, a snapshot, the watchdog, the sampling
  hooks).  A core horizon is the first tick that probes the caches or
  finishes the trace, so cores fetching through compute do not pin
  the clock; a re-probe that fails on full MSHRs is counted, not
  run, so a core blocked until a fill does not pin it either.
* Any cycle on which the fault injector may act falls back to the full
  :func:`tick` (and marks every station dirty), so fault scenarios
  execute the injection order unchanged.

Scheduler contract note: a scheduling policy has no per-cycle hook.
Its state moves when a column command issues (``on_issue``) or another
station calls it (RespC's priority boosts), never with the clock
alone, and its ``next_event_cycle`` names the first cycle ``select``
could pick anything, time-gated eligibility (TP turns, FS slots)
included; so skipping the controller before that horizon is exact.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional

from repro.common.errors import SimulationError
from repro.obs.tracer import NULL_TRACER

#: The engine every run uses unless it names one: the skipper.  The
#: only place the default is decided — ``System.run``, :func:`run`,
#: the CLI's ``--engine`` and the resilience scenarios all read it.
DEFAULT_ENGINE = "columnar"

#: Horizon of a station with no pending event; larger than any cycle,
#: so it never wins the min-reduction against a real one.
NO_EVENT = (1 << 63) - 1


def tick(system) -> None:
    """Advance every station of ``system`` by one cycle."""
    cycle = system.current_cycle
    if system._fault_hooks:
        # Fault injection runs before any component so the order of
        # injected work relative to normal work is fixed — identical
        # under both engines.
        system.resilience.injector.on_cycle(system, cycle)
    for core in system.cores:
        core.tick(cycle)
    for path in system.request_paths:
        path.tick(cycle)

    controller = system.controller
    staging = system._mc_staging
    dest_ready = controller.can_accept() and not staging
    if system._fault_hooks and system.resilience.injector.request_link_stalled(
        cycle
    ):
        dest_ready = False
    system.request_link.tick(cycle, dest_ready=dest_ready)
    for txn in system.request_link.pop_arrivals(cycle):
        staging.append(txn)
    while staging and controller.can_accept():
        controller.enqueue(staging.popleft(), cycle)

    controller.tick(cycle)

    for core_id, path in enumerate(system.response_paths):
        # Drain only what the response path can buffer; the rest
        # stays in the controller's bounded egress, throttling
        # further service for this core (return-channel flow
        # control).
        while path.can_accept():
            popped = controller.pop_responses(core_id, limit=1)
            if not popped:
                break
            path.push_response(popped[0], cycle)
        path.tick(cycle)

    system.response_link.tick(cycle)
    for txn in system.response_link.pop_arrivals(cycle):
        system._deliver(txn, cycle)

    if system._obs_cycle_hooks:
        system.observability.on_cycle_end(cycle)

    system.current_cycle = cycle + 1


def skip_idle_span(system, target: int) -> None:
    """Jump the clock to ``target``.

    No station is touched: what the skipped ticks would have counted
    is owed, and :meth:`System.settle` pays it when someone looks.
    """
    system.current_cycle = target
    if system._obs_cycle_hooks:
        # Sample boundaries inside the span fall where nothing a probe
        # may read changes: fill them with the current probe values
        # *before* the tick at ``target`` mutates anything.
        system.settle()
        system.observability.on_skip(target - 1)


class ColumnarEngine:
    """The ``columnar`` stepper for one :func:`run` window.

    Built fresh per window (systems can be reconfigured between
    windows, e.g. by the GA) and holds no state the System's own
    snapshot/resume path needs — checkpoints pickle the System exactly
    as under ``cycle``.
    """

    def __init__(self, system) -> None:
        self.system = system
        n = len(system.cores)
        self._n = n
        self._req0 = n
        self._reqlink = 2 * n
        self._ctrl = 2 * n + 1
        self._resp0 = 2 * n + 2
        self._resplink = 3 * n + 2
        stations: List = list(system.cores)
        stations.extend(system.request_paths)
        stations.append(system.request_link)
        stations.append(system.controller)
        stations.extend(system.response_paths)
        stations.append(system.response_link)
        self._inj: Optional[int] = None
        if system._fault_hooks:
            stations.append(system.resilience.injector)
            self._inj = len(stations) - 1
        self._stations = stations
        size = len(stations)
        self._size = size

        # Cached ``next_event_cycle`` per station (``NO_EVENT`` for
        # "none"); ``_dirty`` holds the rows that must be re-polled —
        # a dict used as an ordered set, so a refresh walks exactly
        # the rows that were marked.
        self._h: List[int] = [NO_EVENT] * size
        self._dirty: Dict[int, bool] = dict.fromkeys(range(size), True)
        self._next_event = [s.next_event_cycle for s in stations]
        self._core_tick = [c.tick for c in system.cores]
        self._path_tick = [p.tick for p in system.request_paths]
        self._resp_tick = [p.tick for p in system.response_paths]
        # Live view of the cores whose responses await pickup.
        self._waiting = system.controller.waiting_cores()

        # Work attribution for the engine self-profiler
        # (repro.obs.profile): selective steps taken, how many of them
        # each station ran in, horizon refreshes and the rows they
        # re-polled.  Plain counters whether or not a profiler is
        # attached; record_work() hands them over once, when the
        # window ends.
        self._steps = 0
        self._ran = [0] * size
        self._refreshes = 0
        self._repolls = 0
        # The step count at which a core finished: it has no slots to
        # skip after that.
        self._slots_when_done = [0] * n
        self._done = [False] * n
        self._sync_done()
        self._refresh_horizons(system.current_cycle)

    # -- horizon maintenance --------------------------------------------

    def _refresh_horizons(self, cycle: int) -> None:
        """Re-poll ``next_event_cycle`` for dirty rows only."""
        h = self._h
        dirty = self._dirty
        poll = self._next_event
        self._refreshes += 1
        self._repolls += len(dirty)
        for i in dirty:
            event = poll[i](cycle)
            h[i] = NO_EVENT if event is None else event
        dirty.clear()

    def _mark_all_dirty(self) -> None:
        dirty = self._dirty
        for i in range(self._size):
            dirty[i] = True

    def _sync_done(self) -> None:
        done = self._done
        for i, core in enumerate(self.system.cores):
            if core.done and not done[i]:
                done[i] = True
                self._slots_when_done[i] = self._steps
        self._undone = done.count(False)

    def all_done(self) -> bool:
        return not self._undone

    def record_work(self, prof) -> None:
        """Hand this window's work to the profiler: per station the
        steps it ran in and the slots (steps while it was live) it was
        left out of, and the horizon refreshes."""
        prof.record_horizon_refresh(self._repolls, self._refreshes)
        n = self._n
        names = (
            [f"core{i}" for i in range(n)]
            + [f"req_path{i}" for i in range(n)]
            + ["req_link", "memctrl"]
            + [f"resp_path{i}" for i in range(n)]
            + ["resp_link"]
        )
        for row, name in enumerate(names):
            slots = (
                self._slots_when_done[row]
                if row < n and self._done[row]
                else self._steps
            )
            prof.record_station(
                name, ticks=self._ran[row], skips=slots - self._ran[row]
            )
        if self._inj is not None:
            # The injector only ever runs as a full-tick fallback.
            fallbacks = self._ran[self._inj]
            prof.record_station("injector", ticks=fallbacks)
            prof.record_full_tick_fallback(fallbacks)

    # -- stepping --------------------------------------------------------

    def step(self) -> None:
        """One stepped cycle, then re-poll the horizons it dirtied."""
        self._step()
        self._refresh_horizons(self.system.current_cycle)

    def _step(self) -> None:
        """Run the due/fed stations of the current cycle in tick order."""
        sys_ = self.system
        cycle = sys_.current_cycle
        h = self._h
        dirty = self._dirty
        n = self._n
        ran = self._ran

        if self._inj is not None and h[self._inj] <= cycle:
            # The injector may mutate arbitrary stations this cycle
            # (bursts into shapers, staging floods, link stalls); run
            # the canonical full tick and re-poll everything.
            ran[self._inj] += 1
            tick(sys_)
            self._mark_all_dirty()
            self._sync_done()
            return

        self._steps += 1
        stations = self._stations
        done = self._done
        req0 = self._req0
        fed = 0  # bit i: core i fed its request path this cycle
        for i in range(n):
            if h[i] <= cycle and not done[i]:
                path = stations[req0 + i]
                occupancy = path.occupancy
                self._core_tick[i](cycle)
                if path.occupancy != occupancy:
                    fed |= 1 << i
                dirty[i] = True
                ran[i] += 1
                if stations[i].done:
                    done[i] = True
                    self._undone -= 1
                    self._slots_when_done[i] = self._steps

        any_path_ran = False
        for i in range(n):
            j = req0 + i
            if h[j] <= cycle or fed >> i & 1:
                self._path_tick[i](cycle)
                dirty[j] = True
                ran[j] += 1
                any_path_ran = True

        controller = sys_.controller
        staging = sys_._mc_staging
        j = self._reqlink
        if h[j] <= cycle or any_path_ran:
            link = sys_.request_link
            link.tick(
                cycle,
                dest_ready=controller.can_accept() and not staging,
            )
            dirty[j] = True
            ran[j] += 1
            for txn in link.pop_arrivals(cycle):
                staging.append(txn)

        fed_controller = False
        if staging and controller.can_accept():
            while staging and controller.can_accept():
                controller.enqueue(staging.popleft(), cycle)
            fed_controller = True
        j = self._ctrl
        if h[j] <= cycle or fed_controller:
            controller.tick(cycle)
            dirty[j] = True
            ran[j] += 1

        any_resp_ran = False
        waiting = self._waiting
        for i in range(n):
            j = self._resp0 + i
            path = stations[j]
            fed_path = False
            if i in waiting:
                while path.can_accept():
                    popped = controller.pop_responses(i, limit=1)
                    if not popped:
                        break
                    path.push_response(popped[0], cycle)
                    fed_path = True
                if fed_path:
                    # Freed egress room can unfence this core's
                    # transactions; the controller's horizon must be
                    # re-polled even if it did not run.
                    dirty[self._ctrl] = True
            if h[j] <= cycle or fed_path:
                self._resp_tick[i](cycle)
                dirty[j] = True
                ran[j] += 1
                any_resp_ran = True

        j = self._resplink
        if h[j] <= cycle or any_resp_ran:
            link = sys_.response_link
            link.tick(cycle)
            dirty[j] = True
            ran[j] += 1
            for txn in link.pop_arrivals(cycle):
                sys_._deliver(txn, cycle)
                core_id = txn.core_id
                # A fill wakes the core and may queue writebacks into
                # its request path.
                dirty[core_id] = True
                dirty[self._req0 + core_id] = True

        sys_.current_cycle = cycle + 1
        if sys_._obs_cycle_hooks:
            sys_.settle()
            sys_.observability.on_cycle_end(cycle)

    def next_target(self, limit: int) -> Optional[int]:
        """The cycle the next step must run at, or ``None`` to not skip.

        A cross-station coupling with same-cycle work (staged requests
        the controller can take, egress responses a path can buffer)
        or a horizon that is already due pins the system to per-cycle
        stepping.  Otherwise the minimum cached horizon — capped at
        ``limit`` — is the only cycle anything can change.
        """
        sys_ = self.system
        cycle = sys_.current_cycle
        controller = sys_.controller
        if sys_._mc_staging and controller.can_accept():
            return None
        waiting = self._waiting
        if waiting:
            response_paths = sys_.response_paths
            for i in waiting:
                if response_paths[i].can_accept():
                    return None
        earliest = min(self._h)
        if earliest <= cycle:
            return None
        return earliest if earliest < limit else limit


# -- run loop --------------------------------------------------------------


def run(
    system,
    max_cycles: int,
    stop_when_done: bool = True,
    watchdog_cycles: int = 200_000,
    engine: str = DEFAULT_ENGINE,
):
    """The run loop behind :meth:`System.run` (documented there)."""
    # Not a module-level import: repro.resilience's scenarios take
    # DEFAULT_ENGINE from this module while that package initialises.
    from repro.resilience.watchdog import Watchdog

    if max_cycles <= 0:
        raise SimulationError(f"max_cycles must be positive: {max_cycles}")
    columnar = None
    if engine == "cycle":
        step = partial(tick, system)
        next_target = None
        all_done = system.all_cores_done
    elif engine == "columnar":
        columnar = ColumnarEngine(system)
        step = columnar.step
        next_target = columnar.next_target
        all_done = columnar.all_done
    else:
        raise SimulationError(
            f"unknown engine {engine!r}: expected 'cycle' or 'columnar'"
        )
    obs = system.observability
    res = system.resilience
    checkpoint_every = 0
    watchdog_dump_path = ""
    if res is not None:
        checkpoint_every = res.config.checkpoint_every
        watchdog_dump_path = res.config.watchdog_dump_path
        if res.config.watchdog_cycles is not None:
            watchdog_cycles = res.config.watchdog_cycles
    watchdog = Watchdog(
        watchdog_cycles,
        dump_path=watchdog_dump_path,
        tracer=obs.tracer if obs is not None else NULL_TRACER,
    )
    watchdog.reset(system)
    if obs is not None and obs.serving:
        # Serve mode only: the stall margin depends on the observe
        # cadence, which differs between engines — keep it out of
        # the registry on the deterministic cross-engine paths.
        watchdog.bind_metrics(obs.metrics)
    prof = obs.profiler if obs is not None else None
    if prof is not None:
        prof.begin_run(engine, system.current_cycle)
    try:
        end = system.current_cycle + max_cycles
        finished = stop_when_done and all_done()
        while system.current_cycle < end and not finished:
            before = system.current_cycle
            step()
            if (
                checkpoint_every
                and system.current_cycle % checkpoint_every == 0
            ):
                res.take_checkpoint(system)
            # Only a step can finish a core; a skipped span cannot.
            finished = stop_when_done and all_done()
            at_horizon = False
            if (
                next_target is not None
                and not finished
                and system.current_cycle < end
            ):
                target = next_target(end)
                horizon = None
                if watchdog_cycles and target is not None:
                    # Never jump past the watchdog horizon in one
                    # step: a frozen (deadlocked) system must still
                    # trip the progress check, exactly as the
                    # per-cycle loop would while spinning through
                    # the same span.  (``Watchdog.horizon`` inline.)
                    horizon = watchdog.limit
                    if horizon <= system.current_cycle:
                        horizon = system.current_cycle + 1
                    if target > horizon:
                        target = horizon
                if checkpoint_every and target is not None:
                    # Land every clock jump exactly on checkpoint
                    # boundaries — behaviour-preserving by the
                    # no-state-change guarantee, like the horizon cap.
                    target = min(
                        target,
                        res.next_checkpoint_boundary(system.current_cycle),
                    )
                if target is not None and target > system.current_cycle:
                    if prof is not None:
                        prof.record_skip(target - system.current_cycle)
                    skip_idle_span(system, target)
                    at_horizon = target == horizon
                    if (
                        checkpoint_every
                        and system.current_cycle % checkpoint_every == 0
                    ):
                        res.take_checkpoint(system)
            # Check progress only when the clock enters a new
            # 256-cycle block, stepped or skipped into, to keep the
            # hot loop cheap (the watchdog granularity does not
            # matter) — and at the watchdog horizon, where a frozen
            # system has to trip.
            if watchdog_cycles and (
                at_horizon or system.current_cycle >> 8 != before >> 8
            ):
                watchdog.observe(system)
    finally:
        if prof is not None:
            if columnar is not None:
                columnar.record_work(prof)
            prof.end_run(system.current_cycle)
    if obs is not None:
        obs.on_run_end(system.current_cycle)
    return system.report()
