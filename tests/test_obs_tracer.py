"""Unit tests for the event tracer: events, ring, filters, exporters."""

import hashlib
import io
import json
import sys
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.obs import (
    ALL_CATEGORIES,
    CATEGORY_DRAM,
    CATEGORY_SHAPER,
    SYSTEM_CORE,
    EventTracer,
    NULL_TRACER,
    TraceEvent,
    make_trace_buffer,
)
from repro.obs import diag
from repro.obs.events import CATEGORY_PARALLEL, CATEGORY_RESILIENCE


class TestRingBuffer:
    """The bounded rings: the tracer's event ring and the NoC
    grant-trace buffer."""

    @given(st.integers(min_value=1, max_value=16),
           st.integers(min_value=0, max_value=48))
    def test_bounded_drops_oldest_and_counts(self, limit, emitted):
        tracer = EventTracer(limit=limit)
        for cycle in range(emitted):
            tracer.emit(cycle, CATEGORY_DRAM, "dram.RD", 0)
        assert tracer.total_emitted == emitted
        assert tracer.dropped == tracer.total_emitted - len(tracer.events)
        assert tracer.dropped == max(0, emitted - limit)
        assert [e.cycle for e in tracer.events] == list(
            range(max(0, emitted - limit), emitted)
        )

    def test_invalid_capacity(self):
        with pytest.raises(ConfigurationError):
            EventTracer(limit=0)

    def test_make_trace_buffer_kinds(self):
        assert isinstance(make_trace_buffer(None), list)
        bounded = make_trace_buffer(2)
        for i in range(5):
            bounded.append(i)
        assert list(bounded) == [3, 4]
        with pytest.raises(ConfigurationError):
            make_trace_buffer(0)


class TestTraceEvent:
    def test_args_are_canonical_and_hashable(self):
        a = TraceEvent(5, CATEGORY_SHAPER, "shaper.real_release", 0,
                       args=tuple(sorted({"bin": 2, "queued": 1}.items())))
        b = TraceEvent(5, CATEGORY_SHAPER, "shaper.real_release", 0,
                       args=tuple(sorted({"queued": 1, "bin": 2}.items())))
        assert a == b
        assert hash(a) == hash(b)
        assert a.args_dict == {"bin": 2, "queued": 1}

    def test_chrome_obj_core_event(self):
        obj = TraceEvent(17, CATEGORY_DRAM, "dram.ACT", 1,
                         args=(("bank", 3),)).as_chrome_obj()
        assert obj["ph"] == "i"
        assert obj["ts"] == 17
        assert obj["pid"] == 1 and obj["tid"] == 1
        assert obj["args"] == {"bank": 3}

    def test_chrome_obj_system_event_uses_system_track(self):
        obj = TraceEvent(9, CATEGORY_DRAM, "dram.REF",
                         SYSTEM_CORE).as_chrome_obj()
        assert obj["pid"] == 2 and obj["tid"] == 0

    def test_jsonl_obj_round_trips(self):
        event = TraceEvent(3, CATEGORY_SHAPER, "shaper.fake_inject", 0,
                           args=(("address", 64),))
        obj = json.loads(json.dumps(event.as_jsonl_obj()))
        assert obj == {"cycle": 3, "cat": "shaper",
                       "name": "shaper.fake_inject", "core": 0,
                       "args": {"address": 64}}


class TestNullTracer:
    def test_disabled_and_inert(self):
        assert NULL_TRACER.enabled is False
        NULL_TRACER.emit(0, CATEGORY_SHAPER, "shaper.replenish", 0, x=1)


class TestEventTracer:
    def test_records_in_emission_order(self):
        tracer = EventTracer()
        tracer.emit(5, CATEGORY_SHAPER, "shaper.replenish", 0, credits=4)
        tracer.emit(5, CATEGORY_DRAM, "dram.ACT", 1, bank=0)
        names = [e.name for e in tracer.events]
        assert names == ["shaper.replenish", "dram.ACT"]
        assert tracer.counts == {"shaper": 1, "dram": 1}

    def test_ring_bound_and_drop_count(self):
        tracer = EventTracer(limit=4)
        for cycle in range(10):
            tracer.emit(cycle, CATEGORY_DRAM, "dram.RD", 0)
        assert [e.cycle for e in tracer.events] == [6, 7, 8, 9]
        assert tracer.dropped == 6
        assert tracer.total_emitted == 10
        # Drops never hide activity from the per-category counts.
        assert tracer.counts[CATEGORY_DRAM] == 10

    def test_category_filter(self):
        tracer = EventTracer(categories=[CATEGORY_SHAPER])
        tracer.emit(1, CATEGORY_SHAPER, "shaper.real_release", 0)
        tracer.emit(1, CATEGORY_DRAM, "dram.ACT", 0)
        assert [e.category for e in tracer.events] == [CATEGORY_SHAPER]
        assert CATEGORY_DRAM not in tracer.counts

    def test_events_in(self):
        tracer = EventTracer()
        tracer.emit(1, CATEGORY_SHAPER, "shaper.real_release", 0)
        tracer.emit(2, CATEGORY_DRAM, "dram.ACT", 0)
        assert [e.cycle for e in tracer.events_in(CATEGORY_DRAM)] == [2]

    def test_unknown_category_rejected(self):
        with pytest.raises(ConfigurationError):
            EventTracer(categories=["nocache"])

    def test_known_categories_accepted(self):
        assert EventTracer(categories=ALL_CATEGORIES).categories == frozenset(
            ALL_CATEGORIES
        )

    def test_chrome_export_shape(self):
        tracer = EventTracer(limit=2)
        for cycle in range(3):
            tracer.emit(cycle, CATEGORY_DRAM, "dram.WR", 0, bank=1)
        payload = tracer.to_chrome()
        events = payload["traceEvents"]
        metadata = [e for e in events if e["ph"] == "M"]
        instants = [e for e in events if e["ph"] == "i"]
        assert {m["args"]["name"] for m in metadata} == {
            "repro cores", "repro system"
        }
        assert [e["ts"] for e in instants] == [1, 2]
        assert payload["otherData"]["dropped_events"] == 1
        assert payload["otherData"]["category_counts"] == {"dram": 3}

    def test_write_chrome_and_jsonl_to_streams(self):
        tracer = EventTracer()
        tracer.emit(4, CATEGORY_SHAPER, "shaper.jitter_hold", 0,
                    hold_until=7)
        chrome = io.StringIO()
        tracer.write_chrome(chrome)
        parsed = json.loads(chrome.getvalue())
        assert any(e.get("name") == "shaper.jitter_hold"
                   for e in parsed["traceEvents"])
        jsonl = io.StringIO()
        tracer.write_jsonl(jsonl)
        lines = [json.loads(line) for line in
                 jsonl.getvalue().splitlines()]
        assert lines == [{"cycle": 4, "cat": "shaper",
                          "name": "shaper.jitter_hold", "core": 0,
                          "args": {"hold_until": 7}}]

    def test_write_to_paths(self, tmp_path):
        tracer = EventTracer()
        tracer.emit(1, CATEGORY_DRAM, "dram.PRE", 0)
        chrome_path = tmp_path / "trace.json"
        jsonl_path = tmp_path / "trace.jsonl"
        tracer.write_chrome(str(chrome_path))
        tracer.write_jsonl(str(jsonl_path))
        assert json.loads(chrome_path.read_text())["traceEvents"]
        assert len(jsonl_path.read_text().splitlines()) == 1


class TestDiagnostics:
    def test_jsonl_bytes_pinned(self):
        """The tracer's JSONL writer on the diag ring: the stamps, the
        eviction of the oldest and the args ordering are pinned."""
        diag.reset()
        try:
            for i in range(diag.DIAG_LIMIT + 6):
                if i % 3 == 0:
                    diag.emit_diagnostic(
                        "parallel.cache_hit", category=CATEGORY_PARALLEL,
                        task=i, label=f"t[{i}]", digest=f"d{i % 2}",
                    )
                elif i % 3 == 1:
                    diag.emit_diagnostic(
                        "parallel.task_done", category=CATEGORY_PARALLEL,
                        task=i, label=f"t[{i}]",
                    )
                else:
                    diag.emit_diagnostic(
                        "watchdog.stall", category=CATEGORY_RESILIENCE,
                        core_id=i % 4, budget=0.5,
                    )
            lines = "".join(
                json.dumps(event.as_jsonl_obj(), sort_keys=True) + "\n"
                for event in diag.recent()
            )
        finally:
            diag.reset()
        assert diag.count() == 0
        assert hashlib.sha256(lines.encode()).hexdigest()[:16] == "910e32db899e2f3f"

    def test_concurrent_emitters_get_distinct_stamps(self):
        """Executor lanes are threads: no two diagnostics may share a
        stamp and none may be lost."""
        threads, per_thread = 8, 100
        interval = sys.getswitchinterval()
        diag.reset()
        sys.setswitchinterval(1e-6)
        try:
            workers = [
                threading.Thread(target=lambda: [
                    diag.emit_diagnostic("parallel.task_done",
                                         category=CATEGORY_PARALLEL)
                    for _ in range(per_thread)
                ])
                for _ in range(threads)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
            assert not any(worker.is_alive() for worker in workers)
            stamps = [event.cycle for event in diag.recent()]
        finally:
            sys.setswitchinterval(interval)
            diag.reset()
        assert stamps == list(range(threads * per_thread))
