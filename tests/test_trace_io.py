"""Tests for trace file persistence."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError, TraceFormatError
from repro.cpu.trace import MemoryTrace, TraceRecord
from repro.cpu.trace_io import load_trace, save_trace, trace_to_string
from repro.workloads.spec import make_trace


def sample_trace():
    return MemoryTrace(
        [
            TraceRecord(12, 0x7F3A40, is_write=False),
            TraceRecord(0, 0x7F3A80, is_write=True),
            TraceRecord(500, 0x100, is_write=False),
        ],
        name="sample",
    )


class TestRoundTrip:
    def test_plain_file(self, tmp_path):
        original = sample_trace()
        path = tmp_path / "t.trace"
        save_trace(original, path)
        loaded = load_trace(path)
        assert loaded.name == "sample"
        assert loaded.records == original.records

    def test_gzip_file(self, tmp_path):
        original = sample_trace()
        path = tmp_path / "t.trace.gz"
        save_trace(original, path)
        loaded = load_trace(path)
        assert loaded.records == original.records
        # Verify it actually compressed (gzip magic bytes).
        assert path.read_bytes()[:2] == b"\x1f\x8b"

    def test_generated_trace_round_trips(self, tmp_path):
        original = make_trace("apache", 300, seed=9)
        path = tmp_path / "apache.trace"
        save_trace(original, path)
        loaded = load_trace(path)
        assert loaded.records == original.records
        assert loaded.name == "apache"

    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=10**6),
                st.integers(min_value=0, max_value=(1 << 48) - 1),
                st.booleans(),
            ),
            min_size=1,
            max_size=50,
        )
    )
    def test_string_round_trip(self, raw):
        import pathlib
        import tempfile

        records = [
            TraceRecord(gap, address, is_write=w) for gap, address, w in raw
        ]
        original = MemoryTrace(records, name="prop")
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "prop.trace"
            save_trace(original, path)
            assert load_trace(path).records == original.records


class TestFormat:
    def test_string_serialization(self):
        text = trace_to_string(sample_trace())
        assert text.startswith("# repro-trace v1 name=sample")
        assert "12 0x7f3a40 R" in text
        assert "0 0x7f3a80 W" in text

    def test_blank_lines_and_comments_ignored(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text(
            "# repro-trace v1 name=x\n\n# comment\n5 0x40 R\n"
        )
        loaded = load_trace(path)
        assert len(loaded) == 1
        assert loaded.name == "x"

    def test_name_falls_back_to_stem(self, tmp_path):
        path = tmp_path / "mystem.trace"
        path.write_text("5 0x40 R\n")
        assert load_trace(path).name == "mystem"


class TestErrors:
    @pytest.mark.parametrize(
        "line",
        ["5 0x40", "5 0x40 R extra", "x 0x40 R", "5 zz R", "5 0x40 Q"],
    )
    def test_malformed_lines_rejected_with_location(self, tmp_path, line):
        path = tmp_path / "bad.trace"
        path.write_text(line + "\n")
        with pytest.raises(ConfigurationError) as excinfo:
            load_trace(path)
        assert ":1:" in str(excinfo.value)

    @pytest.mark.parametrize(
        "line",
        ["5 0x40", "5 0x40 R extra", "x 0x40 R", "5 zz R", "5 0x40 Q"],
    )
    def test_typed_error_carries_source_and_line(self, tmp_path, line):
        """Every malformed shape raises TraceFormatError with context."""
        path = tmp_path / "bad.trace"
        path.write_text("# repro-trace v1\n5 0x40 R\n" + line + "\n")
        with pytest.raises(TraceFormatError) as excinfo:
            load_trace(path)
        assert excinfo.value.source == str(path)
        assert excinfo.value.line == 3
        assert ":3:" in str(excinfo.value)

    def test_negative_record_fields_carry_location(self, tmp_path):
        """TraceRecord's own range checks gain file/line context."""
        path = tmp_path / "bad.trace"
        path.write_text("-5 0x40 R\n")
        with pytest.raises(TraceFormatError) as excinfo:
            load_trace(path)
        assert excinfo.value.line == 1

    @pytest.mark.parametrize(
        "line", ["%d 0x40 R" % (1 << 63), "5 %#x W" % (1 << 63)]
    )
    def test_values_past_64_bits_carry_location(self, tmp_path, line):
        """A gap or address the trace columns cannot hold fails like a
        negative one, with file/line context."""
        path = tmp_path / "big.trace"
        path.write_text("5 0x40 R\n" + line + "\n")
        with pytest.raises(TraceFormatError) as excinfo:
            load_trace(path)
        assert excinfo.value.source == str(path)
        assert excinfo.value.line == 2

    def test_largest_column_values_round_trip(self, tmp_path):
        limit = (1 << 63) - 1
        original = MemoryTrace([TraceRecord(limit, limit, is_write=True)])
        path = tmp_path / "edge.trace"
        save_trace(original, path)
        assert load_trace(path).records == original.records

    def test_corrupt_gzip_fails_typed(self, tmp_path):
        path = tmp_path / "bad.trace.gz"
        path.write_bytes(b"\x1f\x8b\x08\x00garbage-not-a-gzip-stream")
        with pytest.raises(TraceFormatError) as excinfo:
            load_trace(path)
        assert excinfo.value.source == str(path)
        assert excinfo.value.line == 0  # no single line to blame

    def test_binary_file_fails_typed(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_bytes(bytes(range(256)))
        with pytest.raises(TraceFormatError):
            load_trace(path)

    def test_memory_trace_rejects_non_records(self):
        with pytest.raises(TraceFormatError) as excinfo:
            MemoryTrace(
                [TraceRecord(1, 0x40, is_write=False), ("not", "a", "rec")],
                name="mixed",
            )
        assert excinfo.value.line == 2
        assert "mixed" in excinfo.value.source

    def test_make_trace_validates_parameters(self):
        with pytest.raises(ConfigurationError):
            make_trace("gcc", 0)
        with pytest.raises(ConfigurationError):
            make_trace("gcc", 100, base_address=-1)

    def test_trace_format_error_is_configuration_error(self):
        # Existing callers that catch the broad class keep working.
        assert issubclass(TraceFormatError, ConfigurationError)
