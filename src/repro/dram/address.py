"""Physical-address to DRAM-coordinate decoding.

The default interleaving is ``row : rank : bank : column : channel :
offset`` (from most- to least-significant bits), the classic
open-page-friendly mapping DRAMSim2 calls *scheme 7*: consecutive cache
lines walk the columns of one row before moving to the next bank, which
maximizes row-buffer hits for streaming access — exactly the locality
FR-FCFS exploits and that Camouflage's interference analysis depends
on.

A second mapping, :meth:`AddressMapping.bank_interleaved`, spreads
consecutive lines across banks (``row : column : rank : bank : channel
: offset``) and is used by the Fixed-Service baseline's bank
partitioning experiments.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from repro.common.errors import ConfigurationError
from repro.dram.organization import DramOrganization


class DecodedAddress(NamedTuple):
    """DRAM coordinates of one physical address."""

    channel: int
    rank: int
    bank: int
    row: int
    column: int

    def same_row(self, other: "DecodedAddress") -> bool:
        """True when both addresses land in the same row of the same bank."""
        return (
            self.channel == other.channel
            and self.rank == other.rank
            and self.bank == other.bank
            and self.row == other.row
        )


class InterleavingScheme(Enum):
    """Supported physical-address interleavings."""

    ROW_BANK_COLUMN = "row_bank_column"
    BANK_INTERLEAVED = "bank_interleaved"


class AddressMapping:
    """Decode physical addresses into (channel, rank, bank, row, column).

    Parameters
    ----------
    organization:
        DRAM geometry to decode against.
    scheme:
        Bit-field ordering; see module docstring.
    bank_mask:
        Optional list of bank indices this mapping is restricted to.
        Used by Fixed-Service bank partitioning: each thread's
        addresses are folded onto its private subset of banks, so
        threads never share a bank (and hence never conflict in a row
        buffer).  ``None`` means all banks are available.
    """

    def __init__(
        self,
        organization: DramOrganization,
        scheme: InterleavingScheme = InterleavingScheme.ROW_BANK_COLUMN,
        bank_mask=None,
    ) -> None:
        self._org = organization
        self._scheme = scheme
        if bank_mask is not None:
            bank_mask = tuple(sorted(set(bank_mask)))
            if not bank_mask:
                raise ConfigurationError("bank_mask must not be empty")
            for bank in bank_mask:
                if not 0 <= bank < organization.banks_per_rank:
                    raise ConfigurationError(
                        f"bank {bank} outside 0..{organization.banks_per_rank - 1}"
                    )
        self._bank_mask = bank_mask
        # (shift, mask) of each field, in DecodedAddress order, above
        # the line offset; fields stack from the least-significant end.
        if scheme is InterleavingScheme.ROW_BANK_COLUMN:
            order = ("channel", "column", "bank", "rank", "row")
        else:  # BANK_INTERLEAVED
            order = ("channel", "bank", "rank", "column", "row")
        spans = {}
        shift = organization.offset_bits
        for name in order:
            width = getattr(organization, name + "_bits")
            spans[name] = (shift, (1 << width) - 1)
            shift += width
        self._fields = tuple(
            spans[name] for name in ("channel", "rank", "bank", "row", "column")
        )

    @classmethod
    def bank_interleaved(cls, organization: DramOrganization) -> "AddressMapping":
        """Mapping that strides consecutive lines across banks."""
        return cls(organization, scheme=InterleavingScheme.BANK_INTERLEAVED)

    @classmethod
    def partitioned(cls, organization: DramOrganization, banks) -> "AddressMapping":
        """Mapping confined to a subset of banks (FS bank partitioning)."""
        return cls(organization, bank_mask=banks)

    @property
    def organization(self) -> DramOrganization:
        return self._org

    @property
    def bank_mask(self):
        return self._bank_mask

    def decode(self, address: int) -> DecodedAddress:
        """Slice ``address`` into DRAM coordinates.

        Addresses beyond the installed capacity wrap (high bits are
        ignored), matching how a real controller simply does not wire
        bits it has no row address lines for.
        """
        if address < 0:
            raise ConfigurationError(f"negative physical address {address:#x}")
        (cs, cm), (rs, rm), (bs, bm), (ws, wm), (ls, lm) = self._fields
        bank = (address >> bs) & bm
        if self._bank_mask is not None:
            # Fold the full bank space onto the permitted subset.  This
            # shrinks effective capacity per thread, which is precisely
            # the FS-with-partitioning cost the paper calls out.
            bank = self._bank_mask[bank % len(self._bank_mask)]
        return DecodedAddress(
            (address >> cs) & cm,
            (address >> rs) & rm,
            bank,
            (address >> ws) & wm,
            (address >> ls) & lm,
        )
