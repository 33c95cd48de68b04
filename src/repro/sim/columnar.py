"""The simulation engines: one run loop, two ways to step a cycle.

:func:`run` is the only run loop — resilience overrides, watchdog,
checkpoint-boundary and watchdog-horizon caps, profiler bracket — and
is parameterised only by how a cycle is stepped:

``engine="cycle"``
    The reference.  :func:`tick` runs every station every cycle and
    the clock never jumps.  The equivalence, snapshot and fingerprint
    tests compare everything else against it.

``engine="columnar"``
    The skipper.  :class:`ColumnarEngine` caches every station's
    ``next_event_cycle`` in a dirty-marked horizon list, runs only the
    stations that are due or were fed on each stepped cycle, and jumps
    the clock over spans in which no station can change state.

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
  controller can take, egress responses a path can buffer); the
  skipped span is pure bookkeeping that :func:`skip_idle_span` replays
  in closed form.
* Within a stepped cycle, stations run in exactly the :func:`tick`
  order; a *skipped* station's tick would have been a pure no-op (its
  horizon is in the future and nothing fed it), except for per-cycle
  bookkeeping — cores and request paths replay that via their
  ``skip_idle(cycle, cycle + 1)`` contracts.
* Any cycle on which the fault injector may act falls back to the full
  :func:`tick` (and marks every station dirty), so fault scenarios
  execute the injection order unchanged.

Scheduler contract note: skipping the controller on event-free cycles
assumes ``Scheduler.tick`` is pure bookkeeping that tolerates not
being called on cycles where no transaction can advance; every shipped
scheduler's ``tick`` is a no-op hook.
"""

from __future__ import annotations

from functools import partial
from typing import List, Optional

from repro.common.errors import SimulationError
from repro.obs.tracer import NULL_TRACER
from repro.resilience.watchdog import Watchdog

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
    """Jump the clock to ``target``, replaying skipped bookkeeping."""
    cycle = system.current_cycle
    for core in system.cores:
        core.skip_idle(cycle, target)
    for path in system.request_paths:
        skip = getattr(path, "skip_idle", None)
        if skip is not None:
            skip(cycle, target)
    if system._obs_cycle_hooks:
        # Sample boundaries inside [cycle, target) fall in a span
        # with no state changes: fill them with the current probe
        # values *before* the tick at ``target`` mutates anything.
        system.observability.on_skip(target - 1)
    system.current_cycle = target


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
        # "none"); ``_dirty`` marks the rows that must be re-polled.
        self._h: List[int] = [NO_EVENT] * size
        self._dirty: List[bool] = [True] * size
        self._next_event = [s.next_event_cycle for s in stations]
        self._core_tick = [c.tick for c in system.cores]
        self._core_skip = [c.skip_idle for c in system.cores]
        self._path_tick = [p.tick for p in system.request_paths]
        self._path_skip = [
            getattr(p, "skip_idle", None) for p in system.request_paths
        ]
        self._resp_tick = [p.tick for p in system.response_paths]
        # Request-path buffer occupancy before the cores run, compared
        # after: a change means the core fed the path this cycle.
        self._path_occ = [0] * n
        self._sync_done()

        # Engine self-profiler (repro.obs.profile).  ``None`` keeps
        # every instrumentation site behind a single falsy local check
        # so the disabled path stays at branch cost.
        obs = system.observability
        self._prof = obs.profiler if obs is not None else None
        names = (
            [f"core{i}" for i in range(n)]
            + [f"req_path{i}" for i in range(n)]
            + ["req_link", "memctrl"]
            + [f"resp_path{i}" for i in range(n)]
            + ["resp_link"]
        )
        if self._inj is not None:
            names.append("injector")
        self._station_names = names
        self._refresh_horizons(system.current_cycle)

    # -- horizon maintenance --------------------------------------------

    def _refresh_horizons(self, cycle: int) -> None:
        """Re-poll ``next_event_cycle`` for dirty rows only."""
        h = self._h
        dirty = self._dirty
        poll = self._next_event
        if self._prof is not None:
            self._prof.record_horizon_refresh(dirty.count(True))
        for i in range(self._size):
            if dirty[i]:
                event = poll[i](cycle)
                h[i] = NO_EVENT if event is None else event
                dirty[i] = False

    def _mark_all_dirty(self) -> None:
        dirty = self._dirty
        for i in range(self._size):
            dirty[i] = True

    def _sync_done(self) -> None:
        self._done = [c.done for c in self.system.cores]
        self._undone = self._done.count(False)

    def all_done(self) -> bool:
        return not self._undone

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
        prof = self._prof
        names = self._station_names

        if self._inj is not None and h[self._inj] <= cycle:
            # The injector may mutate arbitrary stations this cycle
            # (bursts into shapers, staging floods, link stalls); run
            # the canonical full tick and re-poll everything.
            if prof is not None:
                prof.record_full_tick_fallback()
                prof.record_station("injector", ticks=1)
            tick(sys_)
            self._mark_all_dirty()
            self._sync_done()
            return

        stations = self._stations
        done = self._done
        path_occ = self._path_occ
        req0 = self._req0
        for i in range(n):
            path_occ[i] = stations[req0 + i].occupancy
            if done[i]:
                continue
            if h[i] <= cycle:
                self._core_tick[i](cycle)
                dirty[i] = True
                if prof is not None:
                    prof.record_station(names[i], ticks=1)
                if stations[i].done:
                    done[i] = True
                    self._undone -= 1
            else:
                # Provably a bookkeeping-only cycle for this core:
                # replay it in closed form (same contract the span
                # skip uses, over a one-cycle span).
                self._core_skip[i](cycle, cycle + 1)
                if prof is not None:
                    prof.record_station(names[i], skips=1)

        any_path_ran = False
        for i in range(n):
            j = req0 + i
            if h[j] <= cycle or stations[j].occupancy != path_occ[i]:
                self._path_tick[i](cycle)
                dirty[j] = True
                any_path_ran = True
                if prof is not None:
                    prof.record_station(names[j], ticks=1)
            else:
                skip = self._path_skip[i]
                if skip is not None:
                    skip(cycle, cycle + 1)
                if prof is not None:
                    prof.record_station(names[j], skips=1)

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
            if prof is not None:
                prof.record_station("req_link", ticks=1)
            for txn in link.pop_arrivals(cycle):
                staging.append(txn)
        elif prof is not None:
            prof.record_station("req_link", skips=1)

        fed_controller = False
        if staging and controller.can_accept():
            while staging and controller.can_accept():
                controller.enqueue(staging.popleft(), cycle)
            fed_controller = True
        if h[self._ctrl] <= cycle or fed_controller:
            controller.tick(cycle)
            dirty[self._ctrl] = True
            if prof is not None:
                prof.record_station("memctrl", ticks=1)
        elif prof is not None:
            prof.record_station("memctrl", skips=1)

        any_resp_ran = False
        for i in range(n):
            j = self._resp0 + i
            path = stations[j]
            fed_path = False
            if controller.pending_response_count(i):
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
                any_resp_ran = True
                if prof is not None:
                    prof.record_station(names[j], ticks=1)
            elif prof is not None:
                prof.record_station(names[j], skips=1)

        j = self._resplink
        if h[j] <= cycle or any_resp_ran:
            link = sys_.response_link
            link.tick(cycle)
            dirty[j] = True
            if prof is not None:
                prof.record_station("resp_link", ticks=1)
            for txn in link.pop_arrivals(cycle):
                sys_._deliver(txn, cycle)
                core_id = txn.core_id
                # A fill wakes the core and may queue writebacks into
                # its request path.
                dirty[core_id] = True
                dirty[self._req0 + core_id] = True
        elif prof is not None:
            prof.record_station("resp_link", skips=1)

        if sys_._obs_cycle_hooks:
            sys_.observability.on_cycle_end(cycle)
        sys_.current_cycle = cycle + 1

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
        response_paths = sys_.response_paths
        for i in range(self._n):
            if response_paths[i].can_accept() and (
                controller.pending_response_count(i)
            ):
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
    engine: str = "cycle",
):
    """The run loop behind :meth:`System.run` (documented there)."""
    if max_cycles <= 0:
        raise SimulationError(f"max_cycles must be positive: {max_cycles}")
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
            step()
            if (
                checkpoint_every
                and system.current_cycle % checkpoint_every == 0
            ):
                res.take_checkpoint(system)
            # Only a step can finish a core; a skipped span cannot.
            finished = stop_when_done and all_done()
            skipped = False
            if (
                next_target is not None
                and not finished
                and system.current_cycle < end
            ):
                target = next_target(end)
                if watchdog_cycles and target is not None:
                    # Never jump past the watchdog horizon in one
                    # step: a frozen (deadlocked) system must still
                    # trip the progress check, exactly as the
                    # per-cycle loop would while spinning through
                    # the same span.
                    target = min(
                        target, watchdog.horizon(system.current_cycle)
                    )
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
                    skipped = True
                    if (
                        checkpoint_every
                        and system.current_cycle % checkpoint_every == 0
                    ):
                        res.take_checkpoint(system)
            # Check progress only every 256 cycles to keep the hot
            # loop cheap (the watchdog granularity does not matter),
            # plus after every skip, whose span is progress-free by
            # construction.
            if watchdog_cycles and (
                skipped or (system.current_cycle & 0xFF) == 0
            ):
                watchdog.observe(system)
    finally:
        if prof is not None:
            prof.end_run(system.current_cycle)
    if obs is not None:
        obs.on_run_end(system.current_cycle)
    return system.report()
