"""Unit tests for the trace-driven out-of-order core model."""

import inspect
import operator
import pickle
import textwrap

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cache.hierarchy import CacheHierarchy
from repro.common.errors import ProtocolError
from repro.cpu import core as core_module
from repro.cpu.core import Core, CoreConfig
from repro.cpu.trace import MemoryTrace, TraceRecord
from repro.common.errors import ConfigurationError


class SinkStub:
    """Request sink that records submissions and can refuse."""

    def __init__(self):
        self.submitted = []
        self.accepting = True

    def can_accept(self):
        return self.accepting

    def submit(self, txn, cycle):
        self.submitted.append((txn, cycle))


def make_core(records, config=None):
    sink = SinkStub()
    core = Core(
        core_id=0,
        trace=MemoryTrace(records),
        hierarchy=CacheHierarchy(),
        request_sink=sink,
        config=config or CoreConfig(),
    )
    return core, sink


def run_with_memory(core, sink, max_cycles, latency=20):
    """Tick the core, returning each miss as a fill after ``latency``."""
    in_flight = []
    delivered = 0
    for cycle in range(max_cycles):
        core.tick(cycle)
        while sink.submitted:
            txn, _ = sink.submitted.pop(0)
            in_flight.append((cycle + latency, txn))
        still = []
        for ready, txn in in_flight:
            if ready <= cycle and not txn.is_write:
                core.receive_fill(txn, cycle)
                delivered += 1
            elif ready > cycle:
                still.append((ready, txn))
        in_flight = still
        if core.done and not in_flight and not sink.submitted:
            break
    return delivered


class TestConfigValidation:
    def test_rejects_zero_width(self):
        with pytest.raises(ConfigurationError):
            CoreConfig(width=0)

    def test_rejects_window_smaller_than_width(self):
        with pytest.raises(ConfigurationError):
            CoreConfig(width=4, window_size=2)

    def test_rejects_zero_mshrs(self):
        with pytest.raises(ConfigurationError):
            CoreConfig(mshr_entries=0)


class TestComputeThroughput:
    def test_retires_at_width_when_unblocked(self):
        """A pure-compute stretch retires at the full machine width."""
        core, sink = make_core([TraceRecord(400, 0)])
        run_with_memory(core, sink, 1000, latency=10)
        assert core.done
        # 401 instructions at width 4 plus the initial miss round trip.
        assert core.finish_cycle < 400 / 4 + 40

    def test_ipc_upper_bound(self):
        core, sink = make_core([TraceRecord(1000, 0)])
        run_with_memory(core, sink, 2000)
        assert core.ipc() <= core.config.width


class TestMissHandling:
    def test_llc_miss_submits_transaction(self):
        core, sink = make_core([TraceRecord(0, 0x10000)])
        core.tick(0)
        assert core.demand_requests == 1

    def test_same_line_misses_merge(self):
        """Two accesses to one line produce a single memory request."""
        core, sink = make_core(
            [TraceRecord(0, 0x10000), TraceRecord(0, 0x10020)]
        )
        run_with_memory(core, sink, 200)
        assert core.done
        assert core.demand_requests == 1
        assert core.mshrs.merges == 1

    def test_cache_hit_no_transaction(self):
        core, sink = make_core(
            [TraceRecord(0, 0x10000), TraceRecord(50, 0x10000)]
        )
        run_with_memory(core, sink, 400)
        assert core.done
        assert core.demand_requests == 1  # second access hits in L1

    def test_load_blocks_retirement_until_fill(self):
        core, sink = make_core([TraceRecord(0, 0x10000), TraceRecord(100, 0x10000)])
        for cycle in range(50):
            core.tick(cycle)  # no fills delivered
        # The load at seq 0 blocks everything behind it.
        assert core.retired_instructions == 0
        assert core.memory_stall_cycles > 0

    def test_store_does_not_block_retirement(self):
        core, sink = make_core(
            [TraceRecord(0, 0x10000, is_write=True), TraceRecord(40, 0x10000)]
        )
        for cycle in range(30):
            core.tick(cycle)
        # The store's line never returned, yet instructions retire.
        assert core.retired_instructions > 0

    def test_mshr_full_stalls_fetch(self):
        config = CoreConfig(mshr_entries=2)
        records = [TraceRecord(0, i * 0x10000) for i in range(6)]
        core, sink = make_core(records, config)
        for cycle in range(20):
            core.tick(cycle)
        assert core.outstanding_misses == 2
        assert core.fetch_stall_cycles > 0

    def test_sink_backpressure_stalls_fetch(self):
        core, sink = make_core([TraceRecord(0, 0x10000)])
        sink.accepting = False
        for cycle in range(10):
            core.tick(cycle)
        assert core.demand_requests == 0
        assert core.fetch_stall_cycles > 0
        sink.accepting = True
        core.tick(10)
        assert core.demand_requests == 1


class TestWindowLimit:
    def test_window_bounds_runahead(self):
        """Fetch cannot run more than window_size past retirement."""
        config = CoreConfig(width=4, window_size=16)
        core, sink = make_core(
            [TraceRecord(0, 0x10000), TraceRecord(1000, 0x20000)], config
        )
        for cycle in range(100):
            core.tick(cycle)  # first load never returns
        assert core.window_occupancy <= 16
        assert core.retired_instructions == 0


class TestFills:
    def test_fill_wakes_all_merged_loads(self):
        core, sink = make_core(
            [TraceRecord(0, 0x10000), TraceRecord(0, 0x10040 - 0x40)]
        )
        run_with_memory(core, sink, 300)
        assert core.done

    def test_fill_for_wrong_core_raises(self):
        core, sink = make_core([TraceRecord(0, 0x10000)])
        core.tick(0)
        txn, _ = sink.submitted[0]
        txn.core_id = 1
        with pytest.raises(ProtocolError):
            core.receive_fill(txn, 10)

    def test_fake_fill_ignored(self):
        from repro.memctrl.transaction import MemoryTransaction, TransactionType

        core, sink = make_core([TraceRecord(0, 0x10000)])
        core.tick(0)
        fake = MemoryTransaction(
            core_id=0, address=0x999940, kind=TransactionType.FAKE_READ,
            created_cycle=0,
        )
        core.receive_fill(fake, 5)  # no exception, no state change
        assert core.outstanding_misses == 1

    def test_writeback_emitted_on_dirty_eviction(self):
        """Dirty lines leaving the LLC become write transactions."""
        from repro.cache.cache import CacheConfig
        from repro.cache.hierarchy import HierarchyConfig

        tiny = HierarchyConfig(
            l1=CacheConfig(size_bytes=2 * 64 * 2, ways=2, line_bytes=64),
            l2=CacheConfig(size_bytes=4 * 64 * 4, ways=4, line_bytes=64),
        )
        records = [
            TraceRecord(2, i * 256, is_write=True) for i in range(8)
        ]
        sink = SinkStub()
        core = Core(0, MemoryTrace(records), CacheHierarchy(tiny), sink)
        run_with_memory(core, sink, 2000)
        assert core.done
        assert core.writeback_requests > 0


class TestCompletion:
    def test_done_and_finish_cycle(self):
        core, sink = make_core([TraceRecord(10, 0x1000)])
        run_with_memory(core, sink, 500)
        assert core.done
        assert core.finish_cycle is not None
        assert core.retired_instructions == 11  # 10 non-mem + 1 access

    def test_tick_after_done_is_noop(self):
        core, sink = make_core([TraceRecord(0, 0x1000)])
        run_with_memory(core, sink, 500)
        cycles_before = core.cycles
        core.tick(10_000)
        assert core.cycles == cycles_before

    def test_memory_stall_fraction_bounded(self):
        core, sink = make_core([TraceRecord(5, i * 0x40000) for i in range(10)])
        run_with_memory(core, sink, 5000, latency=50)
        assert 0.0 <= core.memory_stall_fraction() <= 1.0


# -- private ticks and lazy settling ---------------------------------------
#
# Two cores run the same trace against the same scripted memory: the
# reference is ticked every cycle, the other only at the cycles its
# ``next_event_cycle`` names, catching up through ``settle`` and
# ``receive_fill``.  Whenever someone looks they must be the same core.

LINE = 64
RECORDS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=40),  # non-memory run
        st.integers(min_value=0, max_value=11),  # line (few: hits, merges)
        st.booleans(),  # store?
    ),
    min_size=1,
    max_size=40,
)
CONFIGS = st.builds(
    CoreConfig,
    width=st.integers(min_value=1, max_value=4),
    window_size=st.sampled_from([4, 8, 16, 128]),
    mshr_entries=st.integers(min_value=1, max_value=4),
)

OBSERVED = (
    "cycles", "memory_stall_cycles", "fetch_stall_cycles",
    "retired_instructions", "window_occupancy", "outstanding_misses",
    "demand_requests", "writeback_requests", "done", "finish_cycle",
    "hierarchy.l1.misses", "hierarchy.l2.misses",
    "hierarchy.llc_access_count",
)


def observe(core):
    return {name: operator.attrgetter(name)(core) for name in OBSERVED}


class ScriptedMemory:
    """One core's sink plus the fills it is owed, driven by a script:
    ``refused`` are the cycles the sink back-pressures, ``latencies``
    the fill delay of each demand miss in submission order."""

    def __init__(self, records, config, refused, latencies):
        self.sink = SinkStub()
        self.core = Core(
            core_id=0,
            trace=MemoryTrace(
                [TraceRecord(n, line * LINE * 1024, w) for n, line, w in records]
            ),
            hierarchy=CacheHierarchy(),
            request_sink=self.sink,
            config=config,
        )
        self._refused = refused
        self._latencies = latencies
        self._misses = 0
        self._due = {}

    def begin(self, cycle):
        self.sink.accepting = cycle not in self._refused

    def end(self, cycle):
        """Schedule this cycle's misses, deliver the fills now due
        (after the core's slot, as in the system's tick order);
        returns whether the core received any."""
        for txn, _ in self.sink.submitted:
            if not txn.is_write:
                latency = self._latencies[self._misses % len(self._latencies)]
                self._misses += 1
                self._due.setdefault(cycle + latency, []).append(txn)
        self.sink.submitted.clear()
        fills = self._due.pop(cycle, [])
        for txn in fills:
            self.core.receive_fill(txn, cycle)
        return bool(fills)


def closed_form_regime(core, cycle):
    """The closed form of ``Core._walk`` that the ticked ``core``'s
    tick at ``cycle`` belongs to, or None: ``"run"`` retires at full
    width toward the head load, ``"blocked"`` stalls on the head load
    while fetch streams."""
    width = core.config.width
    room = core.config.window_size - core.window_occupancy
    if (
        core._record_index >= core._trace_length
        or room < width
        or core._nonmem_remaining < width
        or not core._pending_loads
    ):
        return None
    head = core._pending_loads[0]
    gap = head.seq - core.retired_instructions
    if gap >= width:
        return "run"
    if not gap and (head.completion_cycle is None or head.completion_cycle > cycle):
        return "blocked"
    return None


def assert_lazy_core_equals_ticked_core(
    records, config, refused, latencies, looks, cycles=400
):
    """Run the comparison; returns the closed-form regimes the ticked
    core passed through."""
    ticked = ScriptedMemory(records, config, refused, latencies)
    lazy = ScriptedMemory(records, config, refused, latencies)
    regimes = set()
    horizon = lazy.core.next_event_cycle(0)
    for cycle in range(cycles):
        regimes.add(closed_form_regime(ticked.core, cycle))
        ticked.begin(cycle)
        ticked.core.tick(cycle)
        ticked.end(cycle)

        lazy.begin(cycle)
        ran = horizon is not None and horizon <= cycle
        if ran:
            lazy.core.tick(cycle)
        if lazy.end(cycle) or ran:
            horizon = lazy.core.next_event_cycle(cycle + 1)
        if cycle in looks:
            lazy.core.settle(cycle + 1)
            assert observe(lazy.core) == observe(ticked.core)
    lazy.core.settle(cycles)
    assert observe(lazy.core) == observe(ticked.core)
    return regimes - {None}


# Long non-memory runs and long fills, at the paper's width and window:
# the window fills behind an unfilled head load while fetch streams,
# and a full window then retires toward the next load at full width —
# the two closed forms of ``Core._walk`` beside pure streaming.
LONG_CYCLES = 2_000
LONG_RECORDS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=300),  # non-memory run
        st.integers(min_value=0, max_value=11),  # line
        st.booleans(),  # store?
    ),
    min_size=1,
    max_size=16,
)
LONG_CONFIG = dict(width=4, window_size=128)
# Two misses, each followed by more than a window of non-memory work.
LONG_EXAMPLE = dict(
    records=[(0, 1, False), (300, 2, False), (300, 3, False), (300, 4, False)],
    mshr_entries=2,
    refused=set(),
    latencies=[400, 300],
    looks={100, 700, 1_200},
)


# A store miss fills the only MSHR and the next record misses another
# line: every tick until the fill re-probes and fails, behind an empty
# window.  Then a load miss does the same behind its own blocked
# retirement.
BLOCKED_EXAMPLE = dict(
    records=[(0, 1, True), (0, 2, True), (0, 3, False), (0, 4, False)],
    config=CoreConfig(mshr_entries=1),
    refused=set(),
    latencies=[90, 40, 60],
    looks={10, 60, 120, 130, 200, 300},
)


class TestLazySettling:
    @settings(max_examples=150, deadline=None)
    @given(
        records=RECORDS,
        config=CONFIGS,
        refused=st.sets(st.integers(min_value=0, max_value=399)),
        latencies=st.lists(
            st.integers(min_value=1, max_value=90), min_size=1, max_size=8
        ),
        looks=st.sets(st.integers(min_value=0, max_value=399), max_size=12),
    )
    def test_event_driven_core_equals_ticked_core(
        self, records, config, refused, latencies, looks
    ):
        assert_lazy_core_equals_ticked_core(
            records, config, refused, latencies, looks
        )

    @settings(max_examples=60, deadline=None)
    @given(
        records=LONG_RECORDS,
        mshr_entries=st.integers(min_value=1, max_value=4),
        refused=st.sets(st.integers(min_value=0, max_value=LONG_CYCLES - 1)),
        latencies=st.lists(
            st.integers(min_value=1, max_value=400), min_size=1, max_size=8
        ),
        looks=st.sets(
            st.integers(min_value=0, max_value=LONG_CYCLES - 1), max_size=12
        ),
    )
    @example(**LONG_EXAMPLE)
    def test_long_runs_equal_ticked_core(
        self, records, mshr_entries, refused, latencies, looks
    ):
        config = CoreConfig(mshr_entries=mshr_entries, **LONG_CONFIG)
        assert_lazy_core_equals_ticked_core(
            records, config, refused, latencies, looks, cycles=LONG_CYCLES
        )

    @staticmethod
    def _run_long_example():
        e = LONG_EXAMPLE
        return assert_lazy_core_equals_ticked_core(
            e["records"],
            CoreConfig(mshr_entries=e["mshr_entries"], **LONG_CONFIG),
            e["refused"], e["latencies"], e["looks"], cycles=LONG_CYCLES,
        )

    def test_long_example_reaches_both_closed_forms(self):
        assert self._run_long_example() == {"run", "blocked"}

    def test_a_walk_that_drops_blocked_stalls_is_caught(self, monkeypatch):
        """The property has teeth: a walk that forgets the stall cycles
        of its blocked-head closed form under-counts them."""
        source = textwrap.dedent(inspect.getsource(Core._walk))
        dropped = "stalls += ticks\n"
        assert source.count(dropped) == 1
        namespace = {}
        exec(source.replace(dropped, "pass\n"), vars(core_module), namespace)
        monkeypatch.setattr(Core, "_walk", namespace["_walk"])
        with pytest.raises(AssertionError):
            self._run_long_example()

    def test_a_walk_that_drops_failed_probes_is_caught(self, monkeypatch):
        """The property has teeth for the lazy cache counters too: a
        walk that forgets the re-probes of a record blocked on full
        MSHRs under-counts L1/L2 misses and fetch stalls."""
        source = textwrap.dedent(inspect.getsource(Core._walk))
        returned = "return t, fetched, retired, nonmem, popped, stalls, probes\n"
        assert source.count(returned) == 1
        namespace = {}
        exec(
            source.replace(returned, returned.replace("probes\n", "0\n")),
            vars(core_module), namespace,
        )
        monkeypatch.setattr(Core, "_walk", namespace["_walk"])
        with pytest.raises(AssertionError):
            assert_lazy_core_equals_ticked_core(**BLOCKED_EXAMPLE)

    def test_blocked_example_skips_its_failed_probes(self):
        """The lazy core names no event while its probe fails on full
        MSHRs, yet counts every re-probe the ticked core makes."""
        assert_lazy_core_equals_ticked_core(**BLOCKED_EXAMPLE)
        memory = ScriptedMemory(
            BLOCKED_EXAMPLE["records"], BLOCKED_EXAMPLE["config"], set(), [90]
        )
        memory.core.tick(0)  # stores line 1, then fails to store line 2
        assert memory.core.fetch_stall_cycles == 1
        assert memory.core.next_event_cycle(1) is None
        memory.core.settle(50)
        assert memory.core.fetch_stall_cycles == 50
        assert memory.core.hierarchy.l2.misses == 51

    def test_a_polled_horizon_does_not_reach_the_pickle(self):
        """``next_event_cycle`` keeps its walk for the next settle; a
        snapshot must not depend on whether anyone polled."""
        polled, _ = make_core([TraceRecord(300, 0x10000), TraceRecord(300, 0)])
        plain, _ = make_core([TraceRecord(300, 0x10000), TraceRecord(300, 0)])
        for core in (polled, plain):
            core.settle(10)
        assert polled.next_event_cycle(10) == 75
        assert polled._kept_walk is not None
        assert pickle.dumps(polled) == pickle.dumps(plain)
        restored = pickle.loads(pickle.dumps(polled))
        assert restored._kept_walk is None
        restored.settle(75)
        polled.settle(75)
        assert observe(restored) == observe(polled)

    def test_settle_refuses_to_cross_a_probe(self):
        """The guard behind the contract: a tick that probes the
        caches cannot be replayed, only run."""
        core, _ = make_core([TraceRecord(8, 0x10000)])
        assert core.next_event_cycle(0) == 2  # 8 non-memory at width 4
        core.settle(2)
        assert core.retired_instructions == 8
        with pytest.raises(ProtocolError):
            core.settle(3)

    def test_blocked_core_has_no_event_until_its_fill(self):
        core, sink = make_core([TraceRecord(0, 0x10000)])
        core.tick(0)  # the only access: a miss, blocking retirement
        assert core.next_event_cycle(1) is None
        core.settle(50)
        assert core.memory_stall_cycles == 50
        txn, _ = sink.submitted[0]
        core.receive_fill(txn, 60)
        assert core.memory_stall_cycles == 61  # cycles 0..60 all stalled
        assert core.next_event_cycle(61) == 61  # retires it: finishes
        core.tick(61)
        assert core.done and core.finish_cycle == 61
