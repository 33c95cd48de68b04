"""Instruction trace format for the trace-driven core.

A trace is a sequence of records; each record is "run ``nonmem_insts``
non-memory instructions, then perform one memory access".  This is the
classic compressed format used by trace-driven memory-system
simulators (USIMM, SDSim's front end): the non-memory portion only
matters through its length, while every memory access is explicit so
the cache hierarchy sees the true address stream.

:class:`MemoryTrace` stores the records as three packed columns — the
gaps and addresses as :class:`array.array` of signed 64-bit ints, the
write flags as :class:`bytes` of 0/1 — about 17 bytes per record
instead of one object each, and it pickles as three buffers.  The core
reads the columns by index.  :class:`TraceRecord` is the one-record
view at the boundaries: a trace is built from records, iterates and
indexes as records, and text files and hand-written traces speak them.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Sequence, Union

from repro.common.errors import ConfigurationError, TraceFormatError


@dataclass(frozen=True)
class TraceRecord:
    """``nonmem_insts`` plain instructions followed by one memory op."""

    nonmem_insts: int
    address: int
    is_write: bool = False

    def __post_init__(self) -> None:
        if self.nonmem_insts < 0:
            raise ConfigurationError(
                f"nonmem_insts must be non-negative, got {self.nonmem_insts}"
            )
        if self.address < 0:
            raise ConfigurationError(f"negative address {self.address:#x}")

    @property
    def instruction_count(self) -> int:
        """Instructions this record contributes (non-memory + the access)."""
        return self.nonmem_insts + 1


class MemoryTrace:
    """An immutable sequence of trace records held as three columns.

    ``gaps[i]``, ``addresses[i]`` and ``writes[i]`` (0 or 1) are record
    ``i``'s ``nonmem_insts``, ``address`` and ``is_write``.  The columns
    are owned by the trace and must not be mutated.
    """

    def __init__(self, records: Iterable[TraceRecord], name: str = "trace") -> None:
        gaps, addresses, writes = array("q"), array("q"), bytearray()
        for index, record in enumerate(records):
            if not isinstance(record, TraceRecord):
                raise TraceFormatError(
                    f"trace {name!r} record {index + 1} is not a "
                    f"TraceRecord: {record!r}",
                    source=f"<records:{name}>", line=index + 1,
                )
            try:
                gaps.append(record.nonmem_insts)
                addresses.append(record.address)
            except OverflowError:
                raise TraceFormatError(
                    f"trace {name!r} record {index + 1} does not fit a "
                    f"64-bit column: {record!r}",
                    source=f"<records:{name}>", line=index + 1,
                ) from None
            writes.append(1 if record.is_write else 0)
        self.gaps, self.addresses, self.writes = gaps, addresses, bytes(writes)
        self.name = name

    @classmethod
    def _adopt(cls, gaps: array, addresses: array, writes: bytes,
               name: str) -> "MemoryTrace":
        """A trace over columns already known to be valid."""
        trace = cls.__new__(cls)
        trace.gaps, trace.addresses, trace.writes = gaps, addresses, writes
        trace.name = name
        return trace

    @classmethod
    def from_columns(
        cls,
        gaps: Iterable[int],
        addresses: Iterable[int],
        writes: Iterable[int],
        name: str = "trace",
    ) -> "MemoryTrace":
        """A trace over ready-made columns, taken without a copy when
        they are already ``array('q')``/``bytes``.

        Raises :class:`~repro.common.errors.ConfigurationError` when the
        columns differ in length, hold a negative gap or address, a
        value that does not fit 64 bits, or a write flag other than
        0/1.
        """
        try:
            if not (isinstance(gaps, array) and gaps.typecode == "q"):
                gaps = array("q", gaps)
            if not (isinstance(addresses, array) and addresses.typecode == "q"):
                addresses = array("q", addresses)
            if not isinstance(writes, bytes):
                writes = bytes(writes)
        except (OverflowError, ValueError, TypeError) as error:
            raise ConfigurationError(
                f"trace {name!r}: column values must be non-negative "
                f"64-bit ints: {error}"
            ) from None
        if not len(gaps) == len(addresses) == len(writes):
            raise ConfigurationError(
                f"trace {name!r}: column lengths differ (gaps {len(gaps)}, "
                f"addresses {len(addresses)}, writes {len(writes)})"
            )
        if min(gaps, default=0) < 0:
            raise ConfigurationError(
                f"trace {name!r}: nonmem_insts must be non-negative, "
                f"got {min(gaps)}"
            )
        if min(addresses, default=0) < 0:
            raise ConfigurationError(
                f"trace {name!r}: negative address {min(addresses):#x}"
            )
        if max(writes, default=0) > 1:
            raise ConfigurationError(
                f"trace {name!r}: write flags must be 0 or 1, "
                f"got {max(writes)}"
            )
        return cls._adopt(gaps, addresses, writes, name)

    def _record(self, index: int) -> TraceRecord:
        return TraceRecord(
            self.gaps[index], self.addresses[index], self.writes[index] == 1
        )

    def __len__(self) -> int:
        return len(self.writes)

    def __iter__(self) -> Iterator[TraceRecord]:
        return map(TraceRecord, self.gaps, self.addresses,
                   map(bool, self.writes))

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union[TraceRecord, List[TraceRecord]]:
        if isinstance(index, slice):
            return [self._record(i) for i in range(len(self))[index]]
        return self._record(index)

    @property
    def records(self) -> Sequence[TraceRecord]:
        return tuple(self)

    @property
    def total_instructions(self) -> int:
        """Total instruction count across all records."""
        return sum(self.gaps) + len(self)

    @property
    def memory_accesses(self) -> int:
        return len(self)

    @property
    def write_fraction(self) -> float:
        if not self.writes:
            return 0.0
        return self.writes.count(1) / len(self)

    def mpki(self) -> float:
        """Memory accesses per kilo-instruction (intensity summary)."""
        insts = self.total_instructions
        return 1000.0 * self.memory_accesses / insts if insts else 0.0

    def truncated(self, max_accesses: int) -> "MemoryTrace":
        """A prefix of this trace with at most ``max_accesses`` records."""
        cut = slice(None, max_accesses)
        return self._adopt(
            self.gaps[cut], self.addresses[cut], self.writes[cut], self.name
        )

    def repeated(self, times: int) -> "MemoryTrace":
        """This trace concatenated with itself ``times`` times."""
        if times <= 0:
            raise ConfigurationError(f"repeat count must be positive: {times}")
        return self._adopt(
            self.gaps * times, self.addresses * times, self.writes * times,
            self.name,
        )
