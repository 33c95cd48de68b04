"""Unit tests for DRAM organization and address decoding."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.dram.address import AddressMapping, DecodedAddress, InterleavingScheme
from repro.dram.organization import DramOrganization


class TestOrganization:
    def test_defaults_match_paper(self):
        org = DramOrganization()
        assert org.channels == 1
        assert org.ranks_per_channel == 1
        assert org.banks_per_rank == 8
        assert org.row_buffer_bytes == 8192

    def test_columns_per_row(self):
        org = DramOrganization()
        assert org.columns_per_row == 8192 // 64 == 128

    def test_total_banks(self):
        org = DramOrganization(channels=2, ranks_per_channel=2, banks_per_rank=8)
        assert org.total_banks == 32

    def test_capacity(self):
        org = DramOrganization()
        assert org.capacity_bytes == 8 * 16384 * 8192

    def test_bit_widths(self):
        org = DramOrganization()
        assert org.offset_bits == 6
        assert org.column_bits == 7
        assert org.bank_bits == 3
        assert org.rank_bits == 0
        assert org.channel_bits == 0
        assert org.row_bits == 14

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ConfigurationError):
            DramOrganization(banks_per_rank=6)

    def test_rejects_access_larger_than_row(self):
        with pytest.raises(ConfigurationError):
            DramOrganization(row_buffer_bytes=64, access_bytes=128)


class TestDecoding:
    def test_zero_address(self, organization):
        mapping = AddressMapping(organization)
        d = mapping.decode(0)
        assert d == DecodedAddress(channel=0, rank=0, bank=0, row=0, column=0)

    def test_sequential_lines_walk_columns(self, organization):
        """Default mapping: consecutive lines share a row (locality)."""
        mapping = AddressMapping(organization)
        a = mapping.decode(0)
        b = mapping.decode(64)
        assert a.same_row(b)
        assert b.column == a.column + 1

    def test_row_crossing_changes_bank(self, organization):
        """After exhausting a row's columns, the bank advances."""
        mapping = AddressMapping(organization)
        a = mapping.decode(0)
        b = mapping.decode(organization.row_buffer_bytes)
        assert not a.same_row(b)
        assert b.bank == a.bank + 1

    def test_bank_interleaved_strides_banks(self, organization):
        mapping = AddressMapping.bank_interleaved(organization)
        a = mapping.decode(0)
        b = mapping.decode(64)
        assert b.bank == a.bank + 1
        assert a.row == b.row

    def test_high_bits_wrap(self, organization):
        """Addresses beyond capacity alias rather than fail."""
        mapping = AddressMapping(organization)
        d = mapping.decode(organization.capacity_bytes)
        assert d == mapping.decode(0)

    def test_rejects_negative_address(self, organization):
        with pytest.raises(ConfigurationError):
            AddressMapping(organization).decode(-1)

    @given(st.integers(min_value=0, max_value=(1 << 40) - 1))
    def test_decode_always_in_range(self, address):
        org = DramOrganization()
        d = AddressMapping(org).decode(address)
        assert 0 <= d.channel < org.channels
        assert 0 <= d.rank < org.ranks_per_channel
        assert 0 <= d.bank < org.banks_per_rank
        assert 0 <= d.row < org.rows_per_bank
        assert 0 <= d.column < org.columns_per_row

    @given(st.integers(min_value=0, max_value=(1 << 34) - 1))
    def test_same_line_same_coordinates(self, address):
        """All bytes of a cache line decode identically."""
        org = DramOrganization()
        mapping = AddressMapping(org)
        base = address & ~63
        assert mapping.decode(base) == mapping.decode(base + 63)


class TestPartitionedMapping:
    def test_confines_to_bank_subset(self, organization):
        mapping = AddressMapping.partitioned(organization, [2, 3])
        for address in range(0, 1 << 22, 4096 + 64):
            assert mapping.decode(address).bank in (2, 3)

    def test_single_bank(self, organization):
        mapping = AddressMapping.partitioned(organization, [5])
        for address in (0, 64, 8192, 1 << 20):
            assert mapping.decode(address).bank == 5

    def test_rejects_empty_mask(self, organization):
        with pytest.raises(ConfigurationError):
            AddressMapping.partitioned(organization, [])

    def test_rejects_out_of_range_bank(self, organization):
        with pytest.raises(ConfigurationError):
            AddressMapping.partitioned(organization, [8])

    def test_disjoint_partitions_never_collide(self, organization):
        """FS property: two threads on disjoint banks never share one."""
        m0 = AddressMapping.partitioned(organization, [0, 1, 2, 3])
        m1 = AddressMapping.partitioned(organization, [4, 5, 6, 7])
        banks0 = {m0.decode(a).bank for a in range(0, 1 << 20, 64 * 7)}
        banks1 = {m1.decode(a).bank for a in range(0, 1 << 20, 64 * 7)}
        assert banks0.isdisjoint(banks1)


class TestSameRow:
    def test_same_row_true(self):
        a = DecodedAddress(0, 0, 1, 10, 5)
        b = DecodedAddress(0, 0, 1, 10, 99)
        assert a.same_row(b)

    @pytest.mark.parametrize(
        "other",
        [
            DecodedAddress(1, 0, 1, 10, 5),
            DecodedAddress(0, 1, 1, 10, 5),
            DecodedAddress(0, 0, 2, 10, 5),
            DecodedAddress(0, 0, 1, 11, 5),
        ],
    )
    def test_same_row_false(self, other):
        a = DecodedAddress(0, 0, 1, 10, 5)
        assert not a.same_row(other)
