"""Unit tests for workload generation: synthetic, SPEC-like, covert."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.common.rng import DeterministicRng
from repro.workloads.covert import (
    CovertChannelConfig,
    covert_sender_trace,
    key_to_bits,
)
from repro.workloads.phased import two_phase_trace
from repro.workloads.spec import (
    BENCHMARK_NAMES,
    benchmark_profile,
    make_trace,
)
from repro.workloads.synthetic import SyntheticTraceGenerator, TraceParameters


class TestTraceParameters:
    def test_mpki(self):
        assert TraceParameters(gap_mean=99.0).mpki == pytest.approx(10.0)

    def test_rejects_bad_probability(self):
        with pytest.raises(ConfigurationError):
            TraceParameters(seq_prob=1.5)

    def test_rejects_tiny_working_set(self):
        with pytest.raises(ConfigurationError):
            TraceParameters(working_set_bytes=32)

    def test_rejects_off_multiplier_below_one(self):
        with pytest.raises(ConfigurationError):
            TraceParameters(off_gap_multiplier=0.5)


class TestSyntheticGenerator:
    def make(self, seed=1, **kwargs):
        return SyntheticTraceGenerator(
            TraceParameters(**kwargs), DeterministicRng(seed)
        )

    def test_deterministic(self):
        a = self.make().trace(100)
        b = self.make().trace(100)
        assert [r.address for r in a] == [r.address for r in b]
        assert [r.nonmem_insts for r in a] == [r.nonmem_insts for r in b]

    def test_seed_changes_trace(self):
        a = self.make(seed=1).trace(100)
        b = self.make(seed=2).trace(100)
        assert [r.address for r in a] != [r.address for r in b]

    def test_addresses_line_aligned_in_working_set(self):
        t = self.make(working_set_bytes=1 << 16, base_address=1 << 20).trace(
            500
        )
        for r in t:
            assert r.address % 64 == 0
            assert (1 << 20) <= r.address < (1 << 20) + (1 << 16)

    def test_gap_mean_tracks_parameter(self):
        t = self.make(gap_mean=50.0, p_enter_off=0.0).trace(5000)
        mean = sum(r.nonmem_insts for r in t) / len(t)
        assert mean == pytest.approx(50.0, rel=0.15)

    def test_sequential_locality(self):
        t = self.make(seq_prob=1.0).trace(100)
        diffs = [
            b.address - a.address for a, b in zip(t.records, t.records[1:])
        ]
        # Pure streaming: always the next line (modulo wraparound).
        assert all(d == 64 for d in diffs if d > 0)

    def test_write_fraction_tracks_parameter(self):
        t = self.make(write_fraction=0.3).trace(5000)
        assert t.write_fraction == pytest.approx(0.3, abs=0.03)

    def test_burstiness_raises_gap_variance(self):
        steady = self.make(p_enter_off=0.0).trace(3000)
        bursty = self.make(
            p_enter_off=0.1, p_exit_off=0.1, off_gap_multiplier=16.0
        ).trace(3000)

        def variance(trace):
            gaps = [r.nonmem_insts for r in trace]
            mean = sum(gaps) / len(gaps)
            return sum((g - mean) ** 2 for g in gaps) / len(gaps)

        assert variance(bursty) > variance(steady)

    def test_rejects_zero_accesses(self):
        with pytest.raises(ConfigurationError):
            self.make().trace(0)

    def test_record_continues_the_records_stream(self):
        one_at_a_time = self.make(seed=4)
        singles = [one_at_a_time.record() for _ in range(300)]
        batched = self.make(seed=4)
        assert singles == batched.records(100) + batched.records(200)

    def test_zero_gap_mean_gives_zero_gaps(self):
        zero = self.make(gap_mean=0.0).trace(50)
        assert all(r.nonmem_insts == 0 for r in zero)


class TestSpecProfiles:
    def test_eleven_benchmarks(self):
        assert len(BENCHMARK_NAMES) == 11

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_profile_exists(self, name):
        profile = benchmark_profile(name)
        assert profile.name == name
        assert profile.notes

    def test_aliases(self):
        assert benchmark_profile("libqt").name == "libquantum"
        assert benchmark_profile("bzip2").name == "bzip"

    def test_unknown_raises(self):
        with pytest.raises(ConfigurationError):
            benchmark_profile("doom")

    def test_intensity_ordering(self):
        """The contrast the paper's experiments rest on."""
        mcf = benchmark_profile("mcf").params
        astar = benchmark_profile("astar").params
        sjeng = benchmark_profile("sjeng").params
        assert mcf.mpki > astar.mpki > sjeng.mpki

    def test_libquantum_streams(self):
        assert benchmark_profile("libquantum").params.seq_prob > 0.9

    def test_mcf_pointer_chases(self):
        assert benchmark_profile("mcf").params.seq_prob < 0.2

    def test_make_trace_deterministic(self):
        memoised = make_trace("astar", 200, seed=3)
        fresh = make_trace.__wrapped__("astar", 200, seed=3)
        assert memoised is not fresh
        assert _trace_digest(memoised) == _trace_digest(fresh)

    def test_make_trace_memoised(self):
        assert make_trace("astar", 200, seed=5) is make_trace(
            "astar", 200, seed=5
        )
        assert make_trace("astar", 200, seed=5) is not make_trace(
            "astar", 200, seed=6
        )

    def test_make_trace_base_address(self):
        t = make_trace("gcc", 100, base_address=1 << 33)
        assert all(r.address >= (1 << 33) for r in t)

    def test_make_trace_name(self):
        assert make_trace("apache", 10).name == "apache"


def _trace_digest(trace):
    """sha256 over the trace's ``(nonmem_insts, address, is_write)``."""
    h = hashlib.sha256()
    for r in trace:
        h.update(repr((r.nonmem_insts, r.address, r.is_write)).encode())
    return h.hexdigest()[:16]


#: ``make_trace(name, 2000, seed=1)``, ``seed=42`` and ``seed=3`` at
#: ``base_address=1 << 30``.  The pinned values catch any change to the
#: generator's draw order or arithmetic, which two fresh generations
#: compared with each other would not.
GOLDEN_TRACES = {
    "apache": ("4373db0e66d51c56", "7df8e0d3ac5b5920", "91f4cdf419e3dcc4"),
    "astar": ("b1c02b975b91b48d", "637463404cf5c246", "4de8a450eaa68954"),
    "bzip": ("edf0fa6fe08ab9ec", "a525b46cf26ca100", "a024f0aa7f2da015"),
    "gcc": ("a6b158f717d2d5b0", "061cdc3764d64bf5", "63af0eca79633539"),
    "gobmk": ("f8d42b79158a34ef", "4a8365ee2e29e9cc", "d6a86aa755193174"),
    "h264ref": ("dd436d467e455cb7", "13657af9de937312", "3e293c5a689ede4b"),
    "hmmer": ("c4700dacdce199b1", "dd995e19593452a4", "293d280c53afc34d"),
    "libquantum": (
        "b63765a34e249290", "3eb566824e8534b0", "6097cf6d9149cd77",
    ),
    "mcf": ("bcf65493ce429067", "00385bf8702b6915", "24d31c228d74d026"),
    "omnetpp": ("288164a82a1e88ee", "b968d882da0808bc", "675185971d3e4e7a"),
    "sjeng": ("3ce1c53aad333260", "55a616c55f0b9ae1", "c32c59553045bed8"),
}


class TestGoldenTraces:
    def test_every_profile_is_pinned(self):
        assert sorted(GOLDEN_TRACES) == sorted(BENCHMARK_NAMES)

    @pytest.mark.parametrize("name", sorted(GOLDEN_TRACES))
    def test_make_trace(self, name):
        generated = (
            make_trace.__wrapped__(name, 2000, seed=1),
            make_trace.__wrapped__(name, 2000, seed=42),
            make_trace.__wrapped__(name, 2000, seed=3, base_address=1 << 30),
        )
        assert tuple(map(_trace_digest, generated)) == GOLDEN_TRACES[name]

    def test_two_phase_trace(self):
        trace, boundaries = two_phase_trace()
        assert _trace_digest(trace) == "b2e74ed437710c00"
        assert boundaries == [1500, 3000, 4500]


class TestKeyToBits:
    def test_known_key(self):
        assert key_to_bits(0b1010, 4) == [1, 0, 1, 0]

    def test_leading_zeros_preserved(self):
        assert key_to_bits(1, 4) == [0, 0, 0, 1]

    def test_paper_key(self):
        bits = key_to_bits(0x2AAAAAAA, 32)
        assert len(bits) == 32
        assert bits[:4] == [0, 0, 1, 0]

    def test_rejects_oversized_key(self):
        with pytest.raises(ConfigurationError):
            key_to_bits(16, 4)

    def test_rejects_zero_length(self):
        with pytest.raises(ConfigurationError):
            key_to_bits(0, 0)


class TestCovertSender:
    def test_one_bits_generate_write_bursts(self):
        config = CovertChannelConfig(pulse_cycles=1000)
        t = covert_sender_trace([1], config)
        assert len(t) == config.accesses_per_pulse
        assert all(r.is_write for r in t)

    def test_zero_bits_generate_idle(self):
        config = CovertChannelConfig(pulse_cycles=1000)
        t = covert_sender_trace([0], config)
        assert len(t) == 1
        assert t[0].nonmem_insts == config.idle_insts_per_pulse

    def test_addresses_advance_monotonically(self):
        config = CovertChannelConfig(pulse_cycles=500)
        t = covert_sender_trace([1, 1], config)
        addresses = [r.address for r in t]
        assert addresses == sorted(addresses)
        assert len(set(addresses)) == len(addresses)  # fresh lines

    def test_idle_spins_on_one_line(self):
        config = CovertChannelConfig(pulse_cycles=500)
        t = covert_sender_trace([0, 0, 0], config)
        assert len({r.address for r in t}) == 1

    def test_rejects_empty_key(self):
        with pytest.raises(ConfigurationError):
            covert_sender_trace([])

    def test_rejects_non_binary(self):
        with pytest.raises(ConfigurationError):
            covert_sender_trace([0, 2])

    def test_buffer_wraps(self):
        config = CovertChannelConfig(
            pulse_cycles=2000, buffer_bytes=1024, access_gap_insts=4
        )
        t = covert_sender_trace([1], config)
        assert all(
            r.address < config.base_address + config.buffer_bytes for r in t
        )

    @given(st.lists(st.sampled_from([0, 1]), min_size=1, max_size=8))
    @settings(max_examples=20, deadline=None)
    def test_record_count_structure(self, bits):
        config = CovertChannelConfig(pulse_cycles=400)
        t = covert_sender_trace(bits, config)
        expected = sum(
            config.accesses_per_pulse if b else 1 for b in bits
        )
        assert len(t) == expected
