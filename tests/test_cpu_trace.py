"""Unit tests for the trace format."""

import pickle
import tracemalloc
from array import array

import pytest

from repro.common.errors import ConfigurationError, TraceFormatError
from repro.cpu.trace import MemoryTrace, TraceRecord
from repro.workloads.spec import make_trace


class TestTraceRecord:
    def test_instruction_count(self):
        assert TraceRecord(nonmem_insts=9, address=0).instruction_count == 10

    def test_rejects_negative_gap(self):
        with pytest.raises(ConfigurationError):
            TraceRecord(nonmem_insts=-1, address=0)

    def test_rejects_negative_address(self):
        with pytest.raises(ConfigurationError):
            TraceRecord(nonmem_insts=0, address=-64)


class TestMemoryTrace:
    def make(self):
        return MemoryTrace(
            [
                TraceRecord(4, 0x100, is_write=False),
                TraceRecord(0, 0x200, is_write=True),
                TraceRecord(10, 0x300, is_write=False),
            ],
            name="t",
        )

    def test_length_and_indexing(self):
        t = self.make()
        assert len(t) == 3
        assert t[1].address == 0x200

    def test_total_instructions(self):
        assert self.make().total_instructions == 4 + 1 + 0 + 1 + 10 + 1

    def test_memory_accesses(self):
        assert self.make().memory_accesses == 3

    def test_write_fraction(self):
        assert self.make().write_fraction == pytest.approx(1 / 3)

    def test_mpki(self):
        t = self.make()
        assert t.mpki() == pytest.approx(1000 * 3 / 17)

    def test_empty_trace_metrics(self):
        t = MemoryTrace([])
        assert t.mpki() == 0.0
        assert t.write_fraction == 0.0

    def test_truncated(self):
        t = self.make().truncated(2)
        assert len(t) == 2
        assert t[0].address == 0x100

    def test_repeated(self):
        t = self.make().repeated(3)
        assert len(t) == 9
        assert t[3].address == 0x100

    def test_repeated_rejects_non_positive(self):
        with pytest.raises(ConfigurationError):
            self.make().repeated(0)

    def test_iteration(self):
        addresses = [r.address for r in self.make()]
        assert addresses == [0x100, 0x200, 0x300]

    def test_columns_hold_the_records(self):
        t = self.make()
        assert list(t.gaps) == [4, 0, 10]
        assert list(t.addresses) == [0x100, 0x200, 0x300]
        assert t.writes == b"\x00\x01\x00"
        assert t[1] == TraceRecord(0, 0x200, is_write=True)
        assert t[-1] == TraceRecord(10, 0x300)
        assert t[1:] == [t[1], t[2]]
        assert t.records == tuple(t)

    def test_from_columns_equals_records(self):
        t = self.make()
        built = MemoryTrace.from_columns([4, 0, 10], [0x100, 0x200, 0x300],
                                         [0, 1, 0], name="t")
        assert built.records == t.records
        assert built.name == "t"

    def test_repeated_and_truncated_keep_columns_packed(self):
        t = self.make().repeated(2).truncated(4)
        assert isinstance(t.gaps, array) and t.gaps.typecode == "q"
        assert isinstance(t.writes, bytes)
        assert [r.address for r in t] == [0x100, 0x200, 0x300, 0x100]


class TestColumnValidation:
    """Values the 64-bit columns cannot hold fail typed, never with a
    bare ``OverflowError``."""

    def test_unequal_column_lengths(self):
        with pytest.raises(ConfigurationError, match="lengths differ"):
            MemoryTrace.from_columns([1, 2], [0x40], [0, 0])

    @pytest.mark.parametrize("gaps, addresses", [
        ([1, -1], [0, 0x40]),
        ([1, 1], [0, -0x40]),
    ])
    def test_negative_column_value(self, gaps, addresses):
        with pytest.raises(ConfigurationError):
            MemoryTrace.from_columns(gaps, addresses, [0, 0])

    @pytest.mark.parametrize("gaps, addresses", [
        ([1 << 63], [0]),
        ([0], [1 << 64]),
    ])
    def test_column_value_past_64_bits(self, gaps, addresses):
        with pytest.raises(ConfigurationError):
            MemoryTrace.from_columns(gaps, addresses, [0])

    def test_write_flag_other_than_0_or_1(self):
        with pytest.raises(ConfigurationError, match="0 or 1"):
            MemoryTrace.from_columns([0], [0], [2])

    def test_record_past_64_bits_names_its_index(self):
        """``TraceRecord`` takes any non-negative int; a trace cannot."""
        with pytest.raises(TraceFormatError) as excinfo:
            MemoryTrace(
                [TraceRecord(0, 0x40), TraceRecord(0, 1 << 63)], name="big"
            )
        assert excinfo.value.line == 2
        assert "big" in excinfo.value.source


def test_a_trace_is_packed_columns():
    """Under 32 bytes per record (one object per record cost 136),
    and a pickled trace holds buffers, not records."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = make_trace.__wrapped__("mcf", 16_000)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held / len(trace) < 32
    assert b"TraceRecord" not in pickle.dumps(trace)
