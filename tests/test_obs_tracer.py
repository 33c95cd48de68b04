"""Unit tests for the event tracer: events, ring, Chrome exporter."""

import io
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.obs import (
    CATEGORY_DRAM,
    CATEGORY_SHAPER,
    SYSTEM_CORE,
    EventTracer,
    NULL_TRACER,
    TraceEvent,
    make_trace_buffer,
)


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

    def test_events_in(self):
        tracer = EventTracer()
        tracer.emit(1, CATEGORY_SHAPER, "shaper.real_release", 0)
        tracer.emit(2, CATEGORY_DRAM, "dram.ACT", 0)
        assert [e.cycle for e in tracer.events_in(CATEGORY_DRAM)] == [2]

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

    def test_write_chrome_to_a_stream(self):
        tracer = EventTracer()
        tracer.emit(4, CATEGORY_SHAPER, "shaper.jitter_hold", 0,
                    hold_until=7)
        chrome = io.StringIO()
        tracer.write_chrome(chrome)
        parsed = json.loads(chrome.getvalue())
        [instant] = [e for e in parsed["traceEvents"] if e["ph"] == "i"]
        assert instant["name"] == "shaper.jitter_hold"
        assert instant["args"] == {"hold_until": 7}

    def test_write_to_paths(self, tmp_path):
        tracer = EventTracer()
        tracer.emit(1, CATEGORY_DRAM, "dram.PRE", 0)
        chrome_path = tmp_path / "trace.json"
        tracer.write_chrome(str(chrome_path))
        assert json.loads(chrome_path.read_text())["traceEvents"]

